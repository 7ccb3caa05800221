package backend_test

import (
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/params"
)

var sinkBool bool

// BenchmarkPairCheck is the evidence for the Type-1 prepared mode
// (ROADMAP item 13's preamble: a precomputation stays while it buys
// 1.5×): the key-update equation ê(G, sig) = ê(sG, h) through a PreparedKey's
// PairCheck — two stored line schedules, one shared final
// exponentiation — against the unprepared SamePairing it stands in for,
// at Test160 and SS512.
func BenchmarkPairCheck(b *testing.B) {
	for _, name := range []string{"Test160", "SS512"} {
		be := params.MustPreset(name).B
		s := big.NewInt(424242)
		g := be.Generator(backend.G1)
		sg := be.ScalarMult(backend.G1, s, g)
		h := be.HashToG2("pair-check", []byte("2026-07-05T12:00:00Z"))
		sig := be.ScalarMult(backend.G2, s, h)
		pk := be.PrepareKey(g, sg, sg)
		if !pk.PairCheck(h, sig) || !be.SamePairing(g, sig, sg, h) {
			b.Fatalf("%s: a valid update fails the check", name)
		}
		b.Run(name+"/prepared", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool = pk.PairCheck(h, sig)
			}
		})
		b.Run(name+"/SamePairing", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkBool = be.SamePairing(g, sig, sg, h)
			}
		})
	}
}
