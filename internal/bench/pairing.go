package bench

import (
	"encoding/json"
	"fmt"
	"time"

	"timedrelease/internal/bls381"
	"timedrelease/internal/pairing"
	"timedrelease/internal/params"
)

// PairingRow holds one preset's timings of every pairing evaluation
// strategy, in nanoseconds per operation. The speedups are relative to
// the affine oracle — the textbook math/big pairing, per-step inversion
// and plain final exponentiation included — so they quantify what the
// production path buys over the obviously-correct one.
type PairingRow struct {
	Preset  string `json:"preset"`
	Backend string `json:"backend"` // "montgomery" (Type-1, fixed-limb) or "bls12381" (Type-3)
	PBits   int    `json:"p_bits"`
	QBits   int    `json:"q_bits"`
	Iters   int    `json:"iters"`

	AffineNS     int64 `json:"affine_ns"`     // oracle: PairAffine, one F_p inversion per step + plain final exponentiation
	ProjectiveNS int64 `json:"projective_ns"` // inversion-free Jacobian loop (Pair default)
	PrecomputeNS int64 `json:"precompute_ns"` // one-off cost of Precompute(P)
	PreparedNS   int64 `json:"prepared_ns"`   // PairPrepared with the schedule amortised away
	ProductNS    int64 `json:"product4_ns"`   // PairProduct over 4 pairs (shared final exp)
	VerifyNS     int64 `json:"bls_verify_ns"` // prepared-key BLS verification (2 Miller loops, 1 final exp)

	SpeedupProjective float64 `json:"speedup_projective"` // affine / projective
	SpeedupPrepared   float64 `json:"speedup_prepared"`   // affine / prepared

	// Allocation discipline of the steady-state paths (-benchmem style:
	// heap allocations and bytes per operation), which the zero-alloc
	// contract in docs/PERFORMANCE.md covers.
	ProjectiveAllocs int64 `json:"projective_allocs_per_op"`
	ProjectiveBytes  int64 `json:"projective_bytes_per_op"`
	PreparedAllocs   int64 `json:"prepared_allocs_per_op"`
	PreparedBytes    int64 `json:"prepared_bytes_per_op"`
}

// PairingReport is the JSON document `make bench-pairing` writes to
// BENCH_pairing.json.
type PairingReport struct {
	Description string       `json:"description"`
	Rows        []PairingRow `json:"rows"`
}

// RunPairing benchmarks the pairing evaluation strategies against the
// affine reference at each preset and returns both a machine-readable
// report and a rendered table.
func RunPairing(cfg Config) (*PairingReport, *Table, error) {
	names := []string{"Test160", "SS512", "BLS12-381"}
	if cfg.Quick {
		names = []string{"Test160"}
	}
	if cfg.Preset != "" {
		names = []string{cfg.Preset}
	}
	rep := &PairingReport{
		Description: "pairing evaluation strategies: Type-1 Tate rows vs their affine math/big oracle, final exponentiation included (speedups are affine_ns / strategy_ns), plus the Type-3 BLS12-381 optimal ate row (no affine oracle; zeros there)",
	}
	t := &Table{
		ID:    "PAIRING",
		Title: "Pairing strategies: affine oracle vs inversion-free vs prepared",
		Claim: "the pairing dominates every protocol cost (§4); removing per-iteration inversions and precomputing fixed-argument line schedules attacks it directly",
		Columns: []string{
			"params", "affine", "projective", "prepared", "precompute", "product/4 pairs", "speedup (proj)", "speedup (prep)", "prep allocs/op", "prep B/op",
		},
	}

	for _, name := range names {
		set, err := params.Preset(name)
		if err != nil {
			return nil, nil, err
		}
		iters := cfg.iters(20)
		if set.Asymmetric() {
			row := pairingRowBLS(set, iters)
			rep.Rows = append(rep.Rows, row)
			t.Add(fmt.Sprintf("%s/%s (|p|=%d,|q|=%d)", set.Name, row.Backend, row.PBits, row.QBits),
				"n/a",
				nsDur(row.ProjectiveNS), nsDur(row.PreparedNS), nsDur(row.PrecomputeNS), nsDur(row.ProductNS),
				"n/a", "n/a",
				fmt.Sprintf("%d", row.PreparedAllocs), fmt.Sprintf("%d", row.PreparedBytes))
			continue
		}
		pr := set.Pairing
		c := set.Curve
		p := c.HashToGroup("bench-pairing", []byte("P"))
		q := c.HashToGroup("bench-pairing", []byte("Q"))
		prep := pr.Precompute(p)
		pairs := make([]pairing.PointPair, 4)
		for i := range pairs {
			pairs[i] = pairing.PointPair{
				P: c.HashToGroup("bench-pairing", []byte{byte(i)}),
				Q: c.HashToGroup("bench-pairing", []byte{byte(16 + i)}),
			}
		}

		var sink any
		affine := timeOp(iters, func() { sink = pr.PairAffine(p, q) })
		precompute := timeOp(iters, func() { sink = pr.Precompute(p) })
		projective := timeOp(iters, func() { sink = pr.Pair(p, q) })
		prepared := timeOp(iters, func() { sink = pr.PairPrepared(prep, q) })
		product := timeOp(iters, func() { sink = pr.PairProduct(pairs) })
		verify := timeOp(iters, func() {
			if !pr.SamePairingPrepared(prep, q, prep, q) {
				panic("trivially equal pairings differ")
			}
		})
		projAllocs, projBytes := memPerOp(iters, func() { sink = pr.Pair(p, q) })
		prepAllocs, prepBytes := memPerOp(iters, func() { sink = pr.PairPrepared(prep, q) })
		_ = sink

		row := PairingRow{
			Preset:            set.Name,
			Backend:           "montgomery",
			PBits:             set.P.BitLen(),
			QBits:             set.Q.BitLen(),
			Iters:             iters,
			AffineNS:          affine.Nanoseconds(),
			ProjectiveNS:      projective.Nanoseconds(),
			PrecomputeNS:      precompute.Nanoseconds(),
			PreparedNS:        prepared.Nanoseconds(),
			ProductNS:         product.Nanoseconds(),
			VerifyNS:          verify.Nanoseconds(),
			SpeedupProjective: float64(affine.Nanoseconds()) / float64(projective.Nanoseconds()),
			SpeedupPrepared:   float64(affine.Nanoseconds()) / float64(prepared.Nanoseconds()),
			ProjectiveAllocs:  projAllocs,
			ProjectiveBytes:   projBytes,
			PreparedAllocs:    prepAllocs,
			PreparedBytes:     prepBytes,
		}
		rep.Rows = append(rep.Rows, row)
		t.Add(fmt.Sprintf("%s/%s (|p|=%d,|q|=%d)", set.Name, row.Backend, row.PBits, row.QBits),
			ms(affine), ms(projective), ms(prepared), ms(precompute), ms(product),
			fmt.Sprintf("%.2fx", row.SpeedupProjective), fmt.Sprintf("%.2fx", row.SpeedupPrepared),
			fmt.Sprintf("%d", row.PreparedAllocs), fmt.Sprintf("%d", row.PreparedBytes))
	}
	t.Note("affine = the textbook oracle PairAffine: math/big arithmetic, one field inversion per Miller step, plain f^((p²−1)/q) final exponentiation included; projective = the production Pair, Jacobian inversion-free loop + Frobenius final exponentiation on fixed-limb Montgomery vectors")
	t.Note("prepared excludes the one-off Precompute cost (shown separately); it amortises after one reuse of the fixed argument")
	t.Note("product = PairProduct over 4 pairs: parallel Miller loops, one shared final exponentiation")
	t.Note("bls12381 rows time the Type-3 optimal ate pairing; the Tate affine oracle does not exist there, so the affine column and the speedups are n/a (0 in the JSON)")
	t.Note("allocs/op and B/op are -benchmem-style means over the prepared path; the JSON also records the projective path's")
	return rep, t, nil
}

// pairingRowBLS times the BLS12-381 optimal ate strategies via the
// backend's bench hooks. The affine oracle is a Tate-pairing
// artifact with no Type-3 counterpart, so AffineNS and the speedup
// ratios stay zero.
func pairingRowBLS(set *params.Set, iters int) PairingRow {
	pairFull, pairPrep, precomp, product4, verify := bls381.BenchPairingOps()
	projective := timeOp(iters, pairFull)
	prepared := timeOp(iters, pairPrep)
	precompute := timeOp(iters, precomp)
	product := timeOp(iters, product4)
	verifyD := timeOp(iters, verify)
	projAllocs, projBytes := memPerOp(iters, pairFull)
	prepAllocs, prepBytes := memPerOp(iters, pairPrep)
	return PairingRow{
		Preset:           set.Name,
		Backend:          "bls12381",
		PBits:            set.P.BitLen(),
		QBits:            set.Q.BitLen(),
		Iters:            iters,
		ProjectiveNS:     projective.Nanoseconds(),
		PrecomputeNS:     precompute.Nanoseconds(),
		PreparedNS:       prepared.Nanoseconds(),
		ProductNS:        product.Nanoseconds(),
		VerifyNS:         verifyD.Nanoseconds(),
		ProjectiveAllocs: projAllocs,
		ProjectiveBytes:  projBytes,
		PreparedAllocs:   prepAllocs,
		PreparedBytes:    prepBytes,
	}
}

// nsDur renders a nanosecond count the way ms renders a Duration.
func nsDur(ns int64) string { return ms(time.Duration(ns)) }

// JSON renders the report with stable indentation for check-in.
func (r *PairingReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
