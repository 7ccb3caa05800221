package main

import (
	"math/big"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/backend"
	"timedrelease/internal/bls381"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

// probeBackend sizes the backend primitives on one operation's own
// inputs — the message its label or token hashes, a G1 and a G2 point
// it handled and one of its scalars — as parentless replay spans.
func probeBackend(o *opCtx, set *params.Set, domain string, msg []byte, p1, p2 curve.Point, k *big.Int) {
	b := set.B
	g := b.Generator(backend.G1)
	var h curve.Point
	var gt backend.GT
	enc := b.AppendPoint(nil, backend.G2, p2)
	o.replay(0, "backend.hash_to_g2", func() { h = b.HashToG2(domain, msg) })
	o.replay(0, "backend.pair", func() { gt = b.Pair(p1, p2) })
	o.replay(0, "backend.pair_check", func() { b.SamePairing(g, p2, p1, h) })
	o.replay(0, "backend.pair_product", func() { b.PairProduct([]backend.PointPair{{P: g, Q: p2}, {P: p1, Q: h}}) })
	o.replay(0, "backend.scalar_mult_g1", func() { b.ScalarMult(backend.G1, k, p1) })
	o.replay(0, "backend.scalar_mult_g2", func() { b.ScalarMult(backend.G2, k, p2) })
	o.replay(0, "backend.in_subgroup_g2", func() { b.InSubgroup(backend.G2, p2) })
	o.replay(0, "backend.parse_g2", func() { b.ParsePoint(backend.G2, enc) })
	o.replay(0, "backend.gt_exp", func() { b.GTExpUnitary(gt, k) })
}

// perCall times iters calls of fn and returns the mean in nanoseconds.
func perCall(iters int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// probeFields times one base-field multiplication and inversion of the
// two limb backends, operands kept in Montgomery form as the pairings
// keep them. Fixed iteration counts, well under a second in total.
func probeFields(res *result) {
	const mulIters, invIters = 200000, 400
	mul, _, inv := bls381.BenchFieldOps()
	res.set("bls381.fe_mul_ns", perCall(mulIters, mul), "ns", mulIters)
	res.set("bls381.fe_inv_us", perCall(invIters, inv)/1e3, "us", invIters)

	f := params.MustPreset("SS512").Field()
	m := f.Mont()
	x, y, z := m.NewElem(), m.NewElem(), m.NewElem()
	m.ToMont(x, new(big.Int).Rsh(f.P(), 1))
	m.ToMont(y, new(big.Int).Rsh(f.P(), 2))
	res.set("ff.ss512_mul_ns", perCall(mulIters, func() { m.Mul(z, x, y) }), "ns", mulIters)
	res.set("ff.ss512_inv_us", perCall(invIters, func() { m.Inv(z, x) })/1e3, "us", invIters)
}

// probeWire reports the sizes a user of the origin's preset moves: one
// update, what a CCA ciphertext adds to its plaintext, and a catch-up
// page per epoch carried.
func probeWire(res *result, o *origin) {
	if err := wireSizes(res, o.set, o.key, o.labels[:min(len(o.labels), coldstartRun)]); err != nil {
		res.invalid("wire sizes: %v", err)
	}
}

func wireSizes(res *result, set *params.Set, key *core.ServerKeyPair, labels []string) error {
	sc, codec := core.NewScheme(set), wire.NewCodec(set)
	mem := archive.NewMemory()
	for _, l := range labels {
		if err := mem.Put(sc.IssueUpdate(key, l)); err != nil {
			return err
		}
	}
	first, _ := mem.Get(labels[0])
	res.set("wire.update_bytes", float64(len(codec.MarshalKeyUpdate(first))), "B", 1)

	user, err := sc.UserKeyGen(key.Pub, nil)
	if err != nil {
		return err
	}
	msg := make([]byte, messageBytes)
	ct, err := sc.EncryptCCA(nil, key.Pub, user.Pub, labels[0], msg)
	if err != nil {
		return err
	}
	res.set("wire.ciphertext_overhead_bytes", float64(len(codec.MarshalCCACiphertext(ct))-len(msg)), "B", 1)

	page, err := archive.RangeOf(mem, codec, labels[0], labels[len(labels)-1], 0)
	if err != nil {
		return err
	}
	body := codec.MarshalCatchUpResponse(wire.CatchUpResponse{
		Total: page.Total, Updates: page.Updates, Aggregate: page.Aggregate, Root: page.Root})
	res.set("wire.catchup_bytes_per_epoch", float64(len(body))/float64(len(labels)), "B", len(labels))
	return nil
}
