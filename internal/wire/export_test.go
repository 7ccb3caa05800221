package wire

import (
	"math/big"
	"testing"

	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

// Fixtures shared with the external tests (package wire_test), which
// import the variant schemes and so cannot be compiled into package wire.

// GoldenFixtures returns the Test160 codec and scheme with the fixed
// server and receiver keys every golden vector is derived from.
func GoldenFixtures(tb testing.TB) (*Codec, *core.Scheme, *core.ServerKeyPair, *core.UserKeyPair) {
	tb.Helper()
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	// Fixed scalars: nothing random anywhere.
	server, err := bls.NewPrivateKey(set, set.G, big.NewInt(0x1234567))
	if err != nil {
		tb.Fatal(err)
	}
	user, err := sc.UserKeyFromScalar(server.Pub, big.NewInt(0x89abcde))
	if err != nil {
		tb.Fatal(err)
	}
	return NewCodec(set), sc, server, user
}

// ConstReader yields a repeating byte pattern — a deterministic "rng".
type ConstReader byte

func (c ConstReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}
