package archive

import (
	"crypto/sha256"
	"errors"
	"sort"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/wire"
)

// Completeness commitments for range (catch-up) responses.
//
// A /v1/catchup response carries N updates, one aggregate signature and
// a Merkle root over the updates' wire encodings. The aggregate proves
// the SUM of the delivered points was signed (one pairing product,
// internal/bls — per-update binding is the client's blinded batch
// admission check); the root commits the server to exactly which
// records the range contained, so a client can detect a response whose
// update list and aggregate were recomputed inconsistently. Leaves hash the full wire KeyUpdate
// payload rather than the log's CRC32 frame checksums: CRC32 is not
// collision-resistant, so a commitment over CRCs would commit to
// nothing an adversary cares about.
//
// Domain separation: leaves are H(0x00 ‖ payload), interior nodes
// H(0x01 ‖ left ‖ right), which blocks leaf/node confusion attacks. An
// odd node at any level is promoted unchanged. The empty range commits
// to the all-zero root.

// LeafHash is the Merkle leaf over one record's wire KeyUpdate payload.
func LeafHash(payload []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// nodeHash combines two subtree roots.
func nodeHash(left, right [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// MerkleRoot computes the commitment root over leaves in order. The
// empty sequence commits to the zero root.
func MerkleRoot(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return [32]byte{}
	}
	level := append([][32]byte(nil), leaves...)
	for len(level) > 1 {
		next := level[:0:len(level)]
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, nodeHash(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// RangeResult is a label-range slice of an archive together with its
// aggregate signature and completeness commitment — the body of one
// /v1/catchup response.
type RangeResult struct {
	// Updates are the matching records in ascending label order (at
	// most Limit of them, oldest first).
	Updates []core.KeyUpdate
	// Aggregate is Σ of the update points: the same-key BLS aggregate
	// over the returned labels.
	Aggregate curve.Point
	// Root is the Merkle root over the returned records' wire payloads.
	Root [32]byte
	// Total counts ALL archived records in [from, to], before Limit
	// truncation; Total > len(Updates) tells the client the response
	// was truncated and more requests are needed.
	Total int
}

// Ranger is the optional fast-path capability a range-serving archive
// can implement; the durable Log serves ranges from its checkpoint
// aggregates instead of re-summing every point.
type Ranger interface {
	Range(from, to string, limit int) (RangeResult, error)
}

// ErrBadRange reports an inverted or empty label interval.
var ErrBadRange = errors.New("archive: range from > to")

// RangeOf serves the label range [from, to] (inclusive, lexicographic —
// which is chronological for canonical schedule labels) from any
// Archive, truncating to the oldest `limit` records when limit > 0. It
// dispatches to the archive's own Ranger fast path when there is one
// and otherwise recomputes aggregate and root directly.
func RangeOf(a Archive, codec *wire.Codec, from, to string, limit int) (RangeResult, error) {
	if from > to {
		return RangeResult{}, ErrBadRange
	}
	if r, ok := a.(Ranger); ok {
		return r.Range(from, to, limit)
	}
	labels := a.Labels() // sorted ascending
	lo := sort.SearchStrings(labels, from)
	hi := sort.Search(len(labels), func(i int) bool { return labels[i] > to })
	total := hi - lo
	if limit > 0 && total > limit {
		hi = lo + limit
	}
	res := RangeResult{Aggregate: codec.Set.B.Infinity(backend.G2), Total: total}
	leaves := make([][32]byte, 0, hi-lo)
	for _, label := range labels[lo:hi] {
		u, ok := a.Get(label)
		if !ok {
			return RangeResult{}, errors.New("archive: label vanished during range scan: " + label)
		}
		res.Updates = append(res.Updates, u)
		res.Aggregate = bls.AggregateInto(codec.Set, res.Aggregate, u.Point)
		leaves = append(leaves, LeafHash(codec.MarshalKeyUpdate(u)))
	}
	res.Root = MerkleRoot(leaves)
	return res, nil
}
