package bench

import (
	"crypto/rand"
	"encoding/json"
	"fmt"

	"timedrelease/internal/bls381"
	"timedrelease/internal/params"
)

// FieldRow holds one (preset, backend) micro-benchmark of the base
// field's hot operations, in nanoseconds per operation.
type FieldRow struct {
	Preset  string `json:"preset"`
	Backend string `json:"backend"` // "bigint", "montgomery" or "bls12381"
	PBits   int    `json:"p_bits"`
	Iters   int    `json:"iters"`

	MulNS int64 `json:"mul_ns"`
	SqrNS int64 `json:"sqr_ns"`
	InvNS int64 `json:"inv_ns"`

	// -benchmem-style allocation counters per single operation. The
	// montgomery backend's Mul/Sqr/Inv are all zero-alloc (stack
	// accumulators and stack exponentiation buffers); bigint allocates a
	// fresh big.Int per result.
	MulAllocs int64 `json:"mul_allocs_per_op"`
	MulBytes  int64 `json:"mul_bytes_per_op"`
	InvAllocs int64 `json:"inv_allocs_per_op"`
	InvBytes  int64 `json:"inv_bytes_per_op"`
}

// FieldReport is the JSON document `make bench-field` writes to
// BENCH_field.json.
type FieldReport struct {
	Description string     `json:"description"`
	Rows        []FieldRow `json:"rows"`
}

// RunField micro-benchmarks F_p multiplication, squaring and inversion
// on both backends at each preset. Operation counts are batched (one
// timeOp sample covers fieldBatch operations) because a single limb
// multiplication is far below timer resolution.
func RunField(cfg Config) (*FieldReport, *Table, error) {
	const fieldBatch = 1000
	names := []string{"Test160", "SS512", "BLS12-381"}
	if cfg.Quick {
		names = []string{"Test160"}
	}
	if cfg.Preset != "" {
		names = []string{cfg.Preset}
	}
	rep := &FieldReport{
		Description: "F_p Mul/Sqr/Inv per backend; bigint = math/big reference, montgomery = fixed-limb CIOS backend, bls12381 = the Type-3 backend's 381-bit six-limb field; ns per single operation",
	}
	t := &Table{
		ID:    "FIELD",
		Title: "Base-field backends: math/big reference vs fixed-limb Montgomery",
		Claim: "every pairing and curve operation reduces to F_p multiplications; the fixed-limb Montgomery backend removes allocation and per-op reduction overhead",
		Columns: []string{
			"params/backend", "mul", "sqr", "inv", "mul allocs/op", "mul B/op",
		},
	}

	for _, name := range names {
		set, err := params.Preset(name)
		if err != nil {
			return nil, nil, err
		}
		if set.Asymmetric() {
			row, err := fieldRowBLS(set, cfg, fieldBatch)
			if err != nil {
				return nil, nil, err
			}
			rep.Rows = append(rep.Rows, row)
			t.Add(fmt.Sprintf("%s/%s (|p|=%d)", set.Name, row.Backend, row.PBits),
				fmt.Sprintf("%d ns", row.MulNS),
				fmt.Sprintf("%d ns", row.SqrNS),
				fmt.Sprintf("%d ns", row.InvNS),
				fmt.Sprintf("%d", row.MulAllocs),
				fmt.Sprintf("%d", row.MulBytes))
			continue
		}
		f := set.Curve.F
		m := f.Mont()
		iters := cfg.iters(20)
		a, err := f.Rand(rand.Reader)
		if err != nil {
			return nil, nil, err
		}
		b, err := f.Rand(rand.Reader)
		if err != nil {
			return nil, nil, err
		}
		am, bm, rm := m.NewElem(), m.NewElem(), m.NewElem()
		m.ToMont(am, a)
		m.ToMont(bm, b)

		perOp := func(batch int, run func()) int64 {
			d := timeOp(iters, func() {
				for i := 0; i < batch; i++ {
					run()
				}
			})
			return d.Nanoseconds() / int64(batch)
		}
		backends := []struct {
			name          string
			mul, sqr, inv func()
		}{
			{
				name: "bigint",
				mul:  func() { f.Mul(a, b) },
				sqr:  func() { f.Sqr(a) },
				inv:  func() { f.Inv(a) },
			},
			{
				name: "montgomery",
				mul:  func() { m.Mul(rm, am, bm) },
				sqr:  func() { m.Sqr(rm, am) },
				inv:  func() { m.Inv(rm, am) },
			},
		}
		for _, bk := range backends {
			row := FieldRow{
				Preset:  set.Name,
				Backend: bk.name,
				PBits:   set.P.BitLen(),
				Iters:   iters * fieldBatch,
				MulNS:   perOp(fieldBatch, bk.mul),
				SqrNS:   perOp(fieldBatch, bk.sqr),
				// Inversions are orders of magnitude slower than
				// multiplications; a small batch keeps the run short.
				InvNS: perOp(fieldBatch/20, bk.inv),
			}
			row.MulAllocs, row.MulBytes = memPerOp(iters*fieldBatch, bk.mul)
			row.InvAllocs, row.InvBytes = memPerOp(iters*fieldBatch/20, bk.inv)
			rep.Rows = append(rep.Rows, row)
			t.Add(fmt.Sprintf("%s/%s (|p|=%d)", set.Name, bk.name, row.PBits),
				fmt.Sprintf("%d ns", row.MulNS),
				fmt.Sprintf("%d ns", row.SqrNS),
				fmt.Sprintf("%d ns", row.InvNS),
				fmt.Sprintf("%d", row.MulAllocs),
				fmt.Sprintf("%d", row.MulBytes))
		}
	}
	t.Note("montgomery Mul/Sqr exclude domain conversion (operands stay in Montgomery form across whole pairings)")
	t.Note("bigint Inv is the extended-Euclid big.Int ModInverse; montgomery and bls12381 Inv are Fermat exponentiations on limbs")
	t.Note("bls12381 rows time the Type-3 backend's 381-bit six-limb base field (unrolled CIOS); it has no bigint reference path")
	t.Note("allocs/op and B/op are -benchmem-style means; the JSON also records the inversion path's")
	return rep, t, nil
}

// fieldRowBLS times the BLS12-381 backend's fixed six-limb base field
// via its exported bench hooks (the field type itself is unexported).
func fieldRowBLS(set *params.Set, cfg Config, fieldBatch int) (FieldRow, error) {
	mul, sqr, inv := bls381.BenchFieldOps()
	iters := cfg.iters(20)
	perOp := func(batch int, run func()) int64 {
		d := timeOp(iters, func() {
			for i := 0; i < batch; i++ {
				run()
			}
		})
		return d.Nanoseconds() / int64(batch)
	}
	row := FieldRow{
		Preset:  set.Name,
		Backend: "bls12381",
		PBits:   set.P.BitLen(),
		Iters:   iters * fieldBatch,
		MulNS:   perOp(fieldBatch, mul),
		SqrNS:   perOp(fieldBatch, sqr),
		InvNS:   perOp(fieldBatch/20, inv),
	}
	row.MulAllocs, row.MulBytes = memPerOp(iters*fieldBatch, mul)
	row.InvAllocs, row.InvBytes = memPerOp(iters*fieldBatch/20, inv)
	return row, nil
}

// JSON renders the report with stable indentation for check-in.
func (r *FieldReport) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
