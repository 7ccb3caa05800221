package wire

import (
	"errors"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

func TestTokenBatchRoundTrip(t *testing.T) {
	for _, name := range []string{"Test160", params.PresetBLS12381} {
		t.Run(name, func(t *testing.T) {
			set := params.MustPreset(name)
			codec := NewCodec(set)
			batch := testPoints(t, set, 3)
			enc := codec.MarshalTokenRequest(batch)
			dec, err := codec.UnmarshalTokenRequest(enc)
			if err != nil {
				t.Fatal(err)
			}
			if len(dec) != len(batch) {
				t.Fatalf("decoded %d points, want %d", len(dec), len(batch))
			}
			for i := range dec {
				if !set.B.Equal(backend.G2, dec[i], batch[i]) {
					t.Fatalf("point %d does not round-trip", i)
				}
			}
			// Response framing is identical.
			if got := codec.MarshalTokenResponse(batch); string(got) != string(enc) {
				t.Fatal("request/response framings diverged")
			}
		})
	}
}

func TestTokenBatchRejects(t *testing.T) {
	set := params.MustPreset("Test160")
	codec := NewCodec(set)
	if _, err := codec.UnmarshalTokenRequest(AppendU16(nil, 0)); !errors.Is(err, ErrTokenBatch) {
		t.Fatalf("zero count: %v", err)
	}
	if _, err := codec.UnmarshalTokenRequest(AppendU16(nil, maxTokenBatch+1)); !errors.Is(err, ErrTokenBatch) {
		t.Fatalf("oversized count: %v", err)
	}
	// Identity point in the batch.
	enc := AppendU16(nil, 1)
	enc = codec.Set.B.AppendPoint(enc, backend.G2, set.B.Infinity(backend.G2))
	if _, err := codec.UnmarshalTokenRequest(enc); err == nil {
		t.Fatal("identity point accepted")
	}
	// Trailing garbage.
	batch := testPoints(t, set, 1)
	enc = append(codec.MarshalTokenRequest(batch), 0x00)
	if _, err := codec.UnmarshalTokenRequest(enc); !errors.Is(err, ErrTrailing) {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestTokenCredentialRoundTrip(t *testing.T) {
	for _, name := range []string{"Test160", params.PresetBLS12381} {
		t.Run(name, func(t *testing.T) {
			set := params.MustPreset(name)
			codec := NewCodec(set)
			seed := make([]byte, tokenSeedLen)
			for i := range seed {
				seed[i] = byte(i * 7)
			}
			sig := testPoints(t, set, 1)[0]
			enc := codec.MarshalToken(seed, sig)
			gotSeed, gotSig, err := codec.UnmarshalToken(enc)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotSeed) != string(seed) || !set.B.Equal(backend.G2, gotSig, sig) {
				t.Fatal("token does not round-trip")
			}
			// Wrong seed length.
			if _, _, err := codec.UnmarshalToken(codec.MarshalToken(seed[:31], sig)); err == nil {
				t.Fatal("short seed accepted")
			}
		})
	}
}

// testPoints returns n random non-identity G2 subgroup points —
// stand-ins for blinded tokens (the codec neither knows nor cares that
// a point is blinded, only that it is a valid G2 element).
func testPoints(tb testing.TB, set *params.Set, n int) []curve.Point {
	tb.Helper()
	pts := make([]curve.Point, n)
	for i := range pts {
		r, err := set.B.RandScalar(nil)
		if err != nil {
			tb.Fatal(err)
		}
		pts[i] = set.B.ScalarMult(backend.G2, r, set.G2)
	}
	return pts
}

func FuzzTokenRequestDecode(f *testing.F) {
	set := params.MustPreset("Test160")
	codec := NewCodec(set)
	f.Add(codec.MarshalTokenRequest(testPoints(f, set, 2)))
	f.Add(AppendU16(nil, 0))
	f.Add([]byte{0xff, 0xff, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := codec.UnmarshalTokenRequest(data)
		if err != nil {
			return
		}
		// Valid decode must re-encode canonically.
		if got := codec.MarshalTokenRequest(pts); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical: %x vs %x", got, data)
		}
	})
}

func FuzzTokenDecode(f *testing.F) {
	set := params.MustPreset("Test160")
	codec := NewCodec(set)
	seed := make([]byte, tokenSeedLen)
	f.Add(codec.MarshalToken(seed, testPoints(f, set, 1)[0]))
	f.Add([]byte{0, 32})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		gotSeed, gotSig, err := codec.UnmarshalToken(data)
		if err != nil {
			return
		}
		if got := codec.MarshalToken(gotSeed, gotSig); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical: %x vs %x", got, data)
		}
	})
}
