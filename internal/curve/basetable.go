package curve

import (
	"math/big"

	"timedrelease/internal/ff"
)

// baseWindow is the wNAF width for fixed-base scalar multiplication.
// Width 8 stores 2^(8-2) = 64 odd multiples and cuts the expected
// additions to ~m/9 for an m-bit scalar; the table is built once per
// base point, so the larger window pays for itself immediately on
// repeated bases (the system generator G, a server's sG).
const baseWindow = 8

// BaseTable holds the precomputed odd multiples (2i+1)·P of a fixed
// base point in affine form, in the Montgomery domain, so
// ScalarMultBase runs mixed additions (Z = 1) without any per-call
// conversion of the table.
//
// A BaseTable is immutable after construction and safe for concurrent
// use by multiple goroutines.
type BaseTable struct {
	// xm, ym are the affine coordinates of (2i+1)·P, empty when P is the
	// identity; inf marks the (only theoretically reachable) identity
	// entries of low-order bases.
	xm, ym []ff.MontElem
	inf    []bool
}

// PrecomputeBase builds the fixed-base table for p: the odd multiples
// 1·P, 3·P, …, 127·P, computed in Jacobian coordinates and normalised
// to affine with ONE modular inversion (Field.InvBatch, on math/big, where
// an inversion is ~40× cheaper than the limb layer's Fermat ladder).
func (c *Curve) PrecomputeBase(p Point) *BaseTable {
	if p.IsInfinity() {
		return &BaseTable{}
	}
	const tableSize = 1 << (baseWindow - 2)
	m := c.F.Mont()
	a := m.GetArena()
	defer a.Release()
	var o jacMontOps
	jacMontOpsIn(&o, m, a)
	jac := make([]jacMontPoint, tableSize)
	jac[0] = o.toJacMontIn(p, a)
	twoP := newJacMontPointIn(a)
	o.double(twoP, jac[0])
	for i := 1; i < tableSize; i++ {
		jac[i] = newJacMontPointIn(a)
		o.add(jac[i], jac[i-1], twoP)
	}

	t := &BaseTable{
		xm:  make([]ff.MontElem, tableSize),
		ym:  make([]ff.MontElem, tableSize),
		inf: make([]bool, tableSize),
	}
	// Batch inversion rejects zeros, so identity entries (possible only
	// for bases of order < 2^baseWindow, which the subgroup never
	// produces) are masked with Z = 1 and flagged.
	zs := make([]*big.Int, tableSize)
	for i := range jac {
		if m.IsZero(jac[i].Z) {
			t.inf[i] = true
			zs[i] = big1
		} else {
			zs[i] = m.FromMont(nil, jac[i].Z)
		}
	}
	zi := a.Elem()
	for i, inv := range c.F.InvBatch(zs) {
		t.xm[i], t.ym[i] = m.NewElem(), m.NewElem()
		if t.inf[i] {
			continue
		}
		m.ToMont(zi, inv)
		o.toAffine(t.xm[i], t.ym[i], jac[i], zi)
	}
	return t
}

// ScalarMultBase computes k·P from the fixed-base table: one doubling
// per scalar bit and one mixed addition (table entry has Z = 1) per
// non-zero wNAF digit, with negative digits costing only a Y negation.
// It returns exactly ScalarMult(k, P); every temporary comes from a
// pooled arena.
func (c *Curve) ScalarMultBase(t *BaseTable, k *big.Int) Point {
	if k.Sign() < 0 {
		panic("curve: negative scalar")
	}
	if k.Sign() == 0 || len(t.xm) == 0 {
		return Infinity()
	}
	digits := ff.AppendWNAF(nil, k, baseWindow)
	m := c.F.Mont()
	a := m.GetArena()
	defer a.Release()
	var o jacMontOps
	jacMontOpsIn(&o, m, a)
	acc := newJacMontPointIn(a)
	o.setInfinity(acc)
	// e is the reusable addend; its Z stays 1 (mixed addition). Table
	// limbs are copied in so add never aliases immutable table storage.
	e := newJacMontPointIn(a)
	m.SetOne(e.Z)
	for i := len(digits) - 1; i >= 0; i-- {
		o.double(acc, acc)
		d := digits[i]
		if d == 0 {
			continue
		}
		j := d
		if j < 0 {
			j = -j
		}
		j = (j - 1) / 2
		if t.inf[j] {
			continue
		}
		m.Set(e.X, t.xm[j])
		if d < 0 {
			m.Neg(e.Y, t.ym[j])
		} else {
			m.Set(e.Y, t.ym[j])
		}
		o.add(acc, acc, e)
	}
	return o.fromJacMont(acc)
}
