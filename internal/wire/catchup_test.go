package wire

import (
	"fmt"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
)

// sampleCatchUp builds a well-formed n-update response with the true
// aggregate (the root is arbitrary bytes as far as the codec cares).
func sampleCatchUp(tb testing.TB, n int) (*Codec, CatchUpResponse) {
	tb.Helper()
	codec, sc, key := fuzzCodec(tb)
	r := CatchUpResponse{Total: n, Aggregate: curve.Infinity()}
	for i := 0; i < n; i++ {
		u := sc.IssueUpdate(key, fmt.Sprintf("2026-07-05T12:%02d:00Z", i))
		r.Updates = append(r.Updates, u)
		r.Aggregate = codec.Set.B.Add(backend.G2, r.Aggregate, u.Point)
	}
	if n > 0 {
		r.Root = [32]byte{1, 2, 3}
	}
	return codec, r
}

func TestCatchUpResponseRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		codec, want := sampleCatchUp(t, n)
		data := codec.MarshalCatchUpResponse(want)
		got, err := codec.UnmarshalCatchUpResponse(data)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Total != want.Total || len(got.Updates) != len(want.Updates) || got.Root != want.Root {
			t.Fatalf("n=%d: round-trip shape mismatch", n)
		}
		for i := range got.Updates {
			if got.Updates[i].Label != want.Updates[i].Label ||
				!codec.Set.B.Equal(backend.G2, got.Updates[i].Point, want.Updates[i].Point) {
				t.Fatalf("n=%d: update %d differs", n, i)
			}
		}
		if !codec.Set.B.Equal(backend.G2, got.Aggregate, want.Aggregate) {
			t.Fatalf("n=%d: aggregate differs", n)
		}
		if again := codec.MarshalCatchUpResponse(got); string(again) != string(data) {
			t.Fatalf("n=%d: re-encode not canonical", n)
		}
	}
}

func TestCatchUpResponseTruncatedEncoding(t *testing.T) {
	codec, r := sampleCatchUp(t, 3)
	r.Total = 10 // a truncated page: n < total is legal
	data := codec.MarshalCatchUpResponse(r)
	got, err := codec.UnmarshalCatchUpResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != 10 || len(got.Updates) != 3 {
		t.Fatalf("got %d/%d, want 3/10", len(got.Updates), got.Total)
	}
}

func TestCatchUpResponseRejects(t *testing.T) {
	codec, r := sampleCatchUp(t, 3)
	good := codec.MarshalCatchUpResponse(r)

	cases := map[string][]byte{
		"empty":        {},
		"header only":  good[:8],
		"torn update":  good[:12],
		"torn root":    good[:len(good)-1],
		"trailing":     append(append([]byte{}, good...), 0),
		"n over total": codec.MarshalCatchUpResponse(CatchUpResponse{Total: 2, Updates: r.Updates, Aggregate: r.Aggregate, Root: r.Root}),
	}
	// Out-of-order labels (also covers duplicates: ordering is strict).
	swapped := r
	swapped.Updates = []core.KeyUpdate{r.Updates[1], r.Updates[0], r.Updates[2]}
	cases["labels out of order"] = codec.MarshalCatchUpResponse(swapped)
	dup := r
	dup.Updates = []core.KeyUpdate{r.Updates[0], r.Updates[0], r.Updates[2]}
	cases["duplicate label"] = codec.MarshalCatchUpResponse(dup)
	// Empty range must be the canonical identity/zero-root encoding.
	cases["empty range with aggregate"] = codec.MarshalCatchUpResponse(
		CatchUpResponse{Total: 4, Aggregate: r.Aggregate})
	cases["empty range with root"] = codec.MarshalCatchUpResponse(
		CatchUpResponse{Total: 4, Aggregate: curve.Infinity(), Root: [32]byte{9}})

	for name, data := range cases {
		if _, err := codec.UnmarshalCatchUpResponse(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}
