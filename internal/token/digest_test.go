package token

import (
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"

	"timedrelease/internal/bls"
	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

// tokenDigests are the SHA-256 digests TestTokenDigest must reproduce
// per preset.
var tokenDigests = []struct{ preset, digest string }{
	{"Test160", "ccf4c60183da672c0157ff4983e7b3701b6996af077c515a415c58a77bfdf63c"},
	{"SS512", "e77c311d5911ca8be47c04c3be3a8b734b3a40c1f996bdb9141fdb43233dfbbf"},
	{params.PresetBLS12381, "996b8e771885024df7ec60316e457f62dfb252aa515d3b94b82abc934f3122ba"},
}

// TestTokenDigest pins issued tokens byte for byte: 16 tokens blinded
// under a seeded reader, signed with a fixed issuance scalar, unblinded
// and encoded, hashed with SHA-256. A change to the draw order, the
// hash, the blinding algebra or the token encoding moves the digest.
func TestTokenDigest(t *testing.T) {
	for _, d := range tokenDigests {
		t.Run(d.preset, func(t *testing.T) {
			set := params.MustPreset(d.preset)
			key, err := bls.NewPrivateKey(set, set.G, big.NewInt(0x5eed7043))
			if err != nil {
				t.Fatal(err)
			}
			iss, err := NewIssuer(set, key)
			if err != nil {
				t.Fatal(err)
			}
			pending, blinded, err := Blind(set, rand.New(rand.NewSource(48)), 16)
			if err != nil {
				t.Fatal(err)
			}
			signed, err := iss.SignBlinded(blinded)
			if err != nil {
				t.Fatal(err)
			}
			toks, err := Unblind(set, iss.Public(), pending, signed)
			if err != nil {
				t.Fatal(err)
			}
			codec := wire.NewCodec(set)
			h := sha256.New()
			for _, tok := range toks {
				h.Write(EncodeToken(codec, tok))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != d.digest {
				t.Errorf("digest %s, want %s", got, d.digest)
			}
		})
	}
}
