package ff

import "math/big"

// arenaInitialElems sizes a fresh arena slab: enough limb vectors for a
// full Montgomery-backend pairing (Miller state, line coefficients,
// F_{p²} accumulators, final-exponentiation window table) so the slab
// almost never grows after the first use.
const arenaInitialElems = 96

// Arena is a bump allocator of Montgomery limb vectors, recycled
// through a per-context sync.Pool. It exists so the steady-state hot
// paths (Miller loops, final exponentiation, Jacobian ladders) perform
// zero heap allocations per operation: a caller takes one arena for the
// whole operation, carves every temporary out of it, and releases it at
// the end.
//
// Lifecycle rules (see docs/PERFORMANCE.md):
//
//   - An Arena belongs to exactly one goroutine between GetArena and
//     Release; it must not be shared.
//   - Every MontElem obtained from Elem (directly or via ElemIn/OneIn/
//     ScratchIn) is INVALID after Release — the storage is reused by the
//     next holder. Results that outlive the call must be copied out
//     (FromMont, Set into caller-owned elements) before releasing.
//   - Release is idempotent per Get: call it exactly once, typically
//     via defer.
type Arena struct {
	m    *Mont
	slab []uint64
	off  int

	// scratches are reusable F_{p²} scratch blocks. Their limb vectors
	// are owned by the scratch structs (not carved from the slab), so
	// recycling them across Release cycles can never alias slab-handed
	// elements.
	scratches []*Fp2MontScratch
	scrOff    int
}

// GetArena returns a recycled (or fresh) arena for this context. The
// caller must Release it when the operation completes.
func (m *Mont) GetArena() *Arena {
	a := m.arenas.Get().(*Arena)
	return a
}

// Release resets the arena and returns it to the context's pool. All
// elements carved from it become invalid.
func (a *Arena) Release() {
	a.off = 0
	a.scrOff = 0
	a.m.arenas.Put(a)
}

// Elem carves a fresh zeroed element out of the arena. The element is
// valid until Release.
func (a *Arena) Elem() MontElem {
	n := a.m.n
	if a.off+n > len(a.slab) {
		// Grow by replacing the slab; outstanding elements keep the old
		// slab alive through their own slices, so this is safe mid-use.
		size := 2 * len(a.slab)
		if size < n*arenaInitialElems {
			size = n * arenaInitialElems
		}
		a.slab = make([]uint64, size)
		a.off = 0
	}
	e := MontElem(a.slab[a.off : a.off+n : a.off+n])
	a.off += n
	for i := range e {
		e[i] = 0
	}
	return e
}

// ElemIn carves a zeroed F_{p²} element out of a.
func (e *Fp2Mont) ElemIn(a *Arena) Fp2MontElem {
	return Fp2MontElem{A: a.Elem(), B: a.Elem()}
}

// OneIn carves the multiplicative identity out of a.
func (e *Fp2Mont) OneIn(a *Arena) Fp2MontElem {
	x := e.ElemIn(a)
	e.M.SetOne(x.A)
	return x
}

// ScratchIn returns an F_{p²} scratch block tied to a's lifecycle: it
// may be reused freely until Release and must not be retained after.
// Steady state it allocates nothing (blocks are recycled with the
// arena).
func (e *Fp2Mont) ScratchIn(a *Arena) *Fp2MontScratch {
	if a.scrOff < len(a.scratches) {
		s := a.scratches[a.scrOff]
		a.scrOff++
		return s
	}
	m := a.m
	s := &Fp2MontScratch{t0: m.NewElem(), t1: m.NewElem(), t2: m.NewElem(), t3: m.NewElem()}
	a.scratches = append(a.scratches, s)
	a.scrOff++
	return s
}

// UnitaryWNAF returns the signed-window recoding ExpUnitary and
// ExpUnitaryWNAFInto consume. Fixed exponents (the pairing's cofactor,
// a long-lived private scalar) should be recoded once and the digits
// reused, which removes the big.Int work from the exponentiation hot
// path entirely.
func UnitaryWNAF(k *big.Int) []int8 {
	return AppendWNAF(nil, k, expUnitaryWindow)
}

// ExpUnitaryWNAFInto is ExpUnitaryInto with the exponent already
// recoded (UnitaryWNAF) and every temporary carved from a: zero heap
// allocations in steady state. digits must be a UnitaryWNAF recoding of
// a non-negative exponent; x must be unitary, as for ExpUnitaryInto.
// dst may alias x.
func (e *Fp2Mont) ExpUnitaryWNAFInto(dst *Fp2MontElem, x Fp2MontElem, digits []int8, s *Fp2MontScratch, a *Arena) {
	if len(digits) == 0 {
		e.SetOne(dst)
		return
	}
	// Odd powers x, x³, …, x^(2·tableSize−1).
	const tableSize = 1 << (expUnitaryWindow - 2)
	var table [tableSize]Fp2MontElem
	table[0] = e.ElemIn(a)
	e.Set(&table[0], x)
	sq := e.ElemIn(a)
	e.SqrInto(&sq, x, s)
	for i := 1; i < tableSize; i++ {
		table[i] = e.ElemIn(a)
		e.MulInto(&table[i], table[i-1], sq, s)
	}
	acc := e.OneIn(a)
	neg := e.ElemIn(a)
	for i := len(digits) - 1; i >= 0; i-- {
		e.SqrInto(&acc, acc, s)
		switch d := digits[i]; {
		case d > 0:
			e.MulInto(&acc, acc, table[(d-1)/2], s)
		case d < 0:
			e.ConjInto(&neg, table[(-d-1)/2])
			e.MulInto(&acc, acc, neg, s)
		}
	}
	e.Set(dst, acc)
}
