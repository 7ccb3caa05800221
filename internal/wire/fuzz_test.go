package wire

import (
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// Fuzz targets: every decoder must reject or round-trip arbitrary
// input without panicking — the decoders sit directly on untrusted
// network bytes. Run with `go test -fuzz FuzzXxx ./internal/wire` for a
// real campaign; under plain `go test` the seed corpus acts as a
// robustness regression suite.

func fuzzCodec(tb testing.TB) (*Codec, *core.Scheme, *core.ServerKeyPair) {
	tb.Helper()
	set := params.MustPreset("Test160")
	sc := core.NewScheme(set)
	key, err := sc.ServerKeyGen(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return NewCodec(set), sc, key
}

func FuzzUnmarshalEnvelope(f *testing.F) {
	codec, sc, key := fuzzCodec(f)
	user, err := sc.UserKeyGen(key.Pub, nil)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := sc.EncryptCCA(nil, key.Pub, user.Pub, "l", []byte("seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(codec.SealCCA("l", ct))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := codec.UnmarshalEnvelope(data)
		if err != nil {
			return
		}
		// Valid decode must re-encode to the same bytes (canonical form).
		if got := codec.MarshalEnvelope(env); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical: %x vs %x", got, data)
		}
	})
}

func FuzzUnmarshalKeyUpdate(f *testing.F) {
	codec, sc, key := fuzzCodec(f)
	f.Add(codec.MarshalKeyUpdate(sc.IssueUpdate(key, "2026-07-05T12:00:00Z")))
	f.Add([]byte{0, 1, 'x'})
	f.Fuzz(func(t *testing.T, data []byte) {
		u, err := codec.UnmarshalKeyUpdate(data)
		if err != nil {
			return
		}
		if got := codec.MarshalKeyUpdate(u); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}

func FuzzCatchUpDecode(f *testing.F) {
	codec, sc, key := fuzzCodec(f)
	var resp CatchUpResponse
	resp.Aggregate = curve.Infinity()
	for i := 0; i < 3; i++ {
		u := sc.IssueUpdate(key, "2026-07-05T12:0"+string(rune('0'+i))+":00Z")
		resp.Updates = append(resp.Updates, u)
		resp.Aggregate = codec.Set.B.Add(backend.G2, resp.Aggregate, u.Point)
	}
	resp.Total = 5 // a truncated page is a valid seed too
	resp.Root = [32]byte{0xaa, 0xbb}
	f.Add(codec.MarshalCatchUpResponse(resp))
	f.Add(codec.MarshalCatchUpResponse(CatchUpResponse{Aggregate: curve.Infinity()}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := codec.UnmarshalCatchUpResponse(data)
		if err != nil {
			return
		}
		if got := codec.MarshalCatchUpResponse(r); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}

func FuzzUnmarshalServerPublicKey(f *testing.F) {
	codec, _, key := fuzzCodec(f)
	f.Add(codec.MarshalServerPublicKey(key.Pub))
	f.Fuzz(func(t *testing.T, data []byte) {
		pk, err := codec.UnmarshalServerPublicKey(data)
		if err != nil {
			return
		}
		if got := codec.MarshalServerPublicKey(pk); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}

func FuzzUnmarshalCCACiphertext(f *testing.F) {
	codec, sc, key := fuzzCodec(f)
	user, err := sc.UserKeyGen(key.Pub, nil)
	if err != nil {
		f.Fatal(err)
	}
	ct, err := sc.EncryptCCA(nil, key.Pub, user.Pub, "l", []byte("seed message"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(codec.MarshalCCACiphertext(ct))
	f.Fuzz(func(t *testing.T, data []byte) {
		c2, err := codec.UnmarshalCCACiphertext(data)
		if err != nil {
			return
		}
		if got := codec.MarshalCCACiphertext(c2); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}

func FuzzUnmarshalPolicyCiphertext(f *testing.F) {
	codec, _, _ := fuzzCodec(f)
	f.Add([]byte{0, 1, 'a', 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := codec.UnmarshalPolicyCiphertext(data)
		if err != nil {
			return
		}
		if got := codec.MarshalPolicyCiphertext(ct); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}

func FuzzParamsUnmarshal(f *testing.F) {
	set := params.MustPreset("Test160")
	f.Add(set.Marshal())
	f.Add([]byte("tre-params-v1\np=11\nq=3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; errors are fine. Cap input size so the fuzzer
		// cannot spend minutes on giant primes.
		if len(data) > 4096 {
			return
		}
		_, _ = params.Unmarshal(data)
	})
}
