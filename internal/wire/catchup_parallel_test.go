package wire

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/obs"
	"timedrelease/internal/parallel"
	"timedrelease/internal/params"
)

// serialCatchUpDecode is the reference the parallel decoder is held
// to: one pass, one point at a time, first error wins.
func serialCatchUpDecode(c *Codec, data []byte) (CatchUpResponse, error) {
	r := &reader{buf: data}
	total, err := r.u32()
	if err != nil {
		return CatchUpResponse{}, fmt.Errorf("wire: catchup total: %w", err)
	}
	n, err := r.u32()
	if err != nil {
		return CatchUpResponse{}, fmt.Errorf("wire: catchup count: %w", err)
	}
	if n > total {
		return CatchUpResponse{}, errors.New("wire: catchup count exceeds total")
	}
	out := CatchUpResponse{Total: total}
	for i := 0; i < n; i++ {
		label, err := r.bytes16()
		if err != nil {
			return CatchUpResponse{}, fmt.Errorf("wire: catchup update %d label: %w", i, err)
		}
		pt, err := c.point(r, backend.G2)
		if err != nil {
			return CatchUpResponse{}, fmt.Errorf("wire: catchup update %d point: %w", i, err)
		}
		if i > 0 && out.Updates[i-1].Label >= string(label) {
			return CatchUpResponse{}, errors.New("wire: catchup labels not strictly ascending")
		}
		out.Updates = append(out.Updates, core.KeyUpdate{Label: string(label), Point: pt})
	}
	if out.Aggregate, err = c.point(r, backend.G2); err != nil {
		return CatchUpResponse{}, fmt.Errorf("wire: catchup aggregate: %w", err)
	}
	root, err := r.take(32)
	if err != nil {
		return CatchUpResponse{}, fmt.Errorf("wire: catchup root: %w", err)
	}
	copy(out.Root[:], root)
	if err := r.done(); err != nil {
		return CatchUpResponse{}, err
	}
	if n == 0 && (!out.Aggregate.IsInfinity() || out.Root != [32]byte{}) {
		return CatchUpResponse{}, errors.New("wire: empty catchup range must carry identity aggregate and zero root")
	}
	return out, nil
}

// poolBatches reads the pool's spawned/inline batch counters.
func poolBatches() (spawned, inline int64) {
	reg := obs.NewRegistry()
	parallel.Instrument(reg)
	g := reg.Snapshot().Gauges
	return g["parallel.batches"], g["parallel.inline_batches"]
}

// TestCatchUpParallelDecodeIsSerialDecode holds the two-pass decoder to
// the serial reference on both backends: the same response for every
// page size, and for a page with bad points the very same error —
// class, wrapped sentinel and index, the lowest one.
func TestCatchUpParallelDecodeIsSerialDecode(t *testing.T) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) {
			e := newEnvOn(t, preset)
			b, codec := e.codec.Set.B, e.codec
			ptLen := b.PointLen(backend.G2)
			var all []core.KeyUpdate
			for i := 0; i < 300; i++ {
				all = append(all, e.sc.IssueUpdate(e.server, fmt.Sprintf("2026-07-05T%02d:%02d:00Z", i/60, i%60)))
			}
			page := func(n int) []byte {
				r := CatchUpResponse{Total: n + 7, Updates: all[:n], Aggregate: curve.Infinity()}
				if n > 0 {
					r.Aggregate, r.Root = all[0].Point, [32]byte{1, 2, 3}
				}
				return codec.MarshalCatchUpResponse(r)
			}
			// pointAt is the offset of update i's point (labels are 20 bytes).
			pointAt := func(i int) int { return 8 + i*(2+20+ptLen) + 2 + 20 }

			for _, n := range []int{0, 1, 2, 48, 300} {
				data := page(n)
				spawned, inline := poolBatches()
				got, err := codec.UnmarshalCatchUpResponse(data)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				spawned2, inline2 := poolBatches()
				if n == 1 && (spawned2 != spawned || inline2 != inline+1) {
					t.Fatalf("n=1: pool batches moved %d spawned / %d inline, want 0/1", spawned2-spawned, inline2-inline)
				}
				if len(got.Updates) != n || got.Total != n+7 {
					t.Fatalf("n=%d: decoded %d updates of total %d", n, len(got.Updates), got.Total)
				}
				if !bytes.Equal(codec.MarshalCatchUpResponse(got), data) {
					t.Fatalf("n=%d: re-encoding differs from the input", n)
				}
			}

			// Bad encodings, by the error the backend gives them: mutating
			// the low byte of x lands off the curve about half the time and
			// otherwise on it but (cofactor ≫ 1) outside the subgroup.
			good := b.AppendPoint(nil, backend.G2, all[5].Point)
			kinds := map[string][]byte{}
			for d := 1; d < 256 && len(kinds) < 2; d++ {
				raw := bytes.Clone(good)
				raw[ptLen-1] ^= byte(d)
				if _, err := b.ParsePoint(backend.G2, raw); err != nil {
					if _, seen := kinds[err.Error()]; !seen {
						kinds[err.Error()] = raw
					}
				}
			}
			if len(kinds) < 2 {
				t.Fatalf("found only %d kinds of bad point (want off-curve and out-of-subgroup)", len(kinds))
			}
			foreign := bytes.Clone(good)
			foreign[0] ^= 0x80 // the other backend family's compression tag
			kinds["foreign tag"] = foreign

			data := page(48)
			for kind, raw := range kinds {
				for _, i := range []int{0, 17, 47} {
					bad := bytes.Clone(data)
					copy(bad[pointAt(i):], raw)
					if i < 40 { // a later bad point of another kind must not win
						copy(bad[pointAt(i+3):], foreign)
						bad[pointAt(i+7)+ptLen-1] ^= 0xff
					}
					_, want := serialCatchUpDecode(codec, bad)
					_, got := codec.UnmarshalCatchUpResponse(bad)
					if want == nil || got == nil || got.Error() != want.Error() ||
						errors.Is(got, ErrBackendMismatch) != errors.Is(want, ErrBackendMismatch) {
						t.Fatalf("%s at %d:\n got  %v\n want %v", kind, i, got, want)
					}
					if prefix := fmt.Sprintf("wire: catchup update %d point:", i); !strings.HasPrefix(got.Error(), prefix) {
						t.Fatalf("%s at %d: error %q does not name the lowest bad index", kind, i, got)
					}
					if (kind == "foreign tag") != errors.Is(got, ErrBackendMismatch) {
						t.Fatalf("%s at %d: ErrBackendMismatch wrapping wrong: %v", kind, i, got)
					}
				}
			}
			for _, i := range []int{0, 17, 47} {
				cut := data[:pointAt(i)+ptLen/2]
				_, want := serialCatchUpDecode(codec, cut)
				_, got := codec.UnmarshalCatchUpResponse(cut)
				if !errors.Is(got, ErrTruncated) || got.Error() != want.Error() {
					t.Fatalf("truncated in point %d:\n got  %v\n want %v", i, got, want)
				}
			}
		})
	}
}

func TestCatchUpHeader(t *testing.T) {
	codec, r := sampleCatchUp(t, 3)
	r.Total = 10
	data := codec.MarshalCatchUpResponse(r)
	// The header is readable off a body whose points are garbage.
	for i := 8; i < len(data); i++ {
		data[i] = 0xff
	}
	if total, n, err := CatchUpHeader(data); err != nil || total != 10 || n != 3 {
		t.Fatalf("CatchUpHeader = %d, %d, %v; want 10, 3, nil", total, n, err)
	}
	for name, bad := range map[string][]byte{
		"empty":        {},
		"torn count":   data[:7],
		"n over total": {0, 0, 0, 1, 0, 0, 0, 2},
	} {
		if _, _, err := CatchUpHeader(bad); err == nil {
			t.Errorf("%s: header accepted", name)
		}
	}
}
