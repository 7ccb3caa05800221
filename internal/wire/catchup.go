package wire

import (
	"errors"
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/parallel"
)

// CatchUpResponse is the body of one /v1/catchup range response: the
// archived updates of a label range, followed by two reserved fields —
// a point and 32 bytes, which used to carry the updates' sum and a
// Merkle root over their wire payloads. Encoding:
//
//	u32 total ‖ u32 n ‖ n × (u16 len ‖ label ‖ point) ‖ point agg ‖ 32-byte root
//
// The per-update encoding is exactly MarshalKeyUpdate. Decoding is
// strict: labels must be strictly ascending (which also bans
// duplicates), n ≤ total, and an empty range must carry the identity
// aggregate and the zero root — so every valid encoding is canonical.
//
// Servers send the identity and the zero root there; a non-empty page
// decodes with any point and any 32 bytes, and no client consults
// either (each update authenticates itself against the pinned server
// key). They go with the next body version (docs/PROTOCOL.md).
type CatchUpResponse struct {
	// Total counts all archived records in the requested range; when
	// Total > len(Updates) the response was truncated (oldest first)
	// and the client must page.
	Total int
	// Updates are the returned records in ascending label order.
	Updates []core.KeyUpdate
	// Aggregate and Root are reserved: the identity and zero. No
	// production caller; kept for benchmark/ until ROADMAP item 1(i).
	Aggregate curve.Point
	Root      [32]byte
}

// maxCatchUpPrealloc caps the slice preallocation a decoded length
// field can cause; larger counts grow by append (a hostile header
// cannot allocate more than the body it actually ships).
const maxCatchUpPrealloc = 4096

// MarshalCatchUpResponse encodes a catch-up range response.
func (c *Codec) MarshalCatchUpResponse(r CatchUpResponse) []byte {
	ptLen := c.Set.B.PointLen(backend.G2)
	out := make([]byte, 0, 8+len(r.Updates)*(2+16+ptLen)+ptLen+32)
	out = appendU32(out, r.Total)
	out = appendU32(out, len(r.Updates))
	for _, u := range r.Updates {
		out = append(out, c.MarshalKeyUpdate(u)...)
	}
	out = c.appendPoint(out, backend.G2, r.Aggregate)
	return append(out, r.Root[:]...)
}

// CatchUpHeader reads the fixed 8-byte header of a catch-up range
// response — the window's record count and the number of updates the
// body claims to carry — without touching a point, so a caller can
// refuse an oversized page before paying for it.
func CatchUpHeader(data []byte) (total, n int, err error) {
	return catchUpHeader(&reader{buf: data})
}

func catchUpHeader(r *reader) (total, n int, err error) {
	if total, err = r.u32(); err != nil {
		return 0, 0, fmt.Errorf("wire: catchup total: %w", err)
	}
	if n, err = r.u32(); err != nil {
		return 0, 0, fmt.Errorf("wire: catchup count: %w", err)
	}
	if n > total {
		return 0, 0, errors.New("wire: catchup count exceeds total")
	}
	return total, n, nil
}

// UnmarshalCatchUpResponse decodes and structurally validates a
// catch-up range response in two passes: the framing (lengths, strictly
// ascending labels) serially, then the update points — curve and
// subgroup membership, the dominant cost — across the worker pool, one
// point per task. A bad point is reported at the lowest failing index,
// exactly as a serial decoder would. Whether the updates are the
// server's is NOT checked here — that is the client's job against its
// pinned server key.
func (c *Codec) UnmarshalCatchUpResponse(data []byte) (CatchUpResponse, error) {
	r := &reader{buf: data}
	total, n, err := catchUpHeader(r)
	if err != nil {
		return CatchUpResponse{}, err
	}
	out := CatchUpResponse{Total: total}
	var raws [][]byte // raws[i] is the encoding of Updates[i].Point
	if n > 0 {
		out.Updates = make([]core.KeyUpdate, 0, min(n, maxCatchUpPrealloc))
		raws = make([][]byte, 0, min(n, maxCatchUpPrealloc))
	}
	ptLen := c.Set.B.PointLen(backend.G2)
	for i := 0; i < n; i++ {
		label, err := r.bytes16()
		if err != nil {
			return CatchUpResponse{}, fmt.Errorf("wire: catchup update %d label: %w", i, err)
		}
		raw, err := r.take(ptLen)
		if err != nil {
			return CatchUpResponse{}, fmt.Errorf("wire: catchup update %d point: %w", i, err)
		}
		if i > 0 && out.Updates[i-1].Label >= string(label) {
			return CatchUpResponse{}, errors.New("wire: catchup labels not strictly ascending")
		}
		out.Updates = append(out.Updates, core.KeyUpdate{Label: string(label)})
		raws = append(raws, raw)
	}
	errs := make([]error, n)
	parallel.For(n, func(i int) {
		out.Updates[i].Point, errs[i] = c.parsePoint(backend.G2, raws[i])
	})
	for i, err := range errs {
		if err != nil {
			return CatchUpResponse{}, fmt.Errorf("wire: catchup update %d point: %w", i, err)
		}
	}
	agg, err := c.point(r, backend.G2)
	if err != nil {
		return CatchUpResponse{}, fmt.Errorf("wire: catchup aggregate: %w", err)
	}
	out.Aggregate = agg
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
