package bls381_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
	"timedrelease/internal/token"
)

// hashToG2Digests are the SHA-256 digests TestHashToG2Digest must
// reproduce, one per hash domain in use.
var hashToG2Digests = map[string]string{
	core.TimeDomain: "17afd46a12c363db486139ebe02ee44fda12d6fdb7f63e375776bb76374ab248",
	token.Domain:    "9c9020a474ca8d7c4e6eb0cda0c3739b31ac67196353628f00c068084ef81f96",
}

// TestHashToG2Digest pins BLS12-381's H1 byte for byte: a SHA-256 over
// the compressed HashToG2 outputs of 512 seeded labels under each
// domain the schemes hash into. A change to the expander, the SVDW
// constants, the square root, the sign rule or the cofactor clearing
// moves the digest.
func TestHashToG2Digest(t *testing.T) {
	set := params.MustPreset(params.PresetBLS12381)
	for domain, want := range hashToG2Digests {
		t.Run(domain, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			h := sha256.New()
			for i := 0; i < 512; i++ {
				label := make([]byte, 1+rng.Intn(40))
				rng.Read(label)
				h.Write(set.B.AppendPoint(nil, backend.G2, set.B.HashToG2(domain, label)))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("digest %s, want %s", got, want)
			}
		})
	}
}
