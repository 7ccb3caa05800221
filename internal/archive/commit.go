package archive

import (
	"crypto/sha256"
	"errors"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/wire"
)

// The range result, and what is left of the two fields a /v1/catchup
// body carries after its updates: a point and 32 bytes that were a sum
// and a Merkle root. Neither could admit anything — a sum binds no
// single update, an unsigned root is recomputed by whoever alters the
// list — no client consults them, and no archive computes them: they
// are sent as the identity and the zero root until the next body
// version drops them (docs/PROTOCOL.md). The root hashed leaves as
// H(0x00 ‖ payload) and nodes as H(0x01 ‖ left ‖ right), promoted an
// odd node unchanged, and was all-zero over nothing.

// LeafHash is the Merkle leaf over one record's wire KeyUpdate payload.
// No production caller; kept for benchmark/ until ROADMAP item 1(i).
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
// empty sequence commits to the zero root. No production caller; kept
// for benchmark/ until ROADMAP item 1(i).
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

// RangeResult is a label-range slice of an archive — what one
// /v1/catchup response carries.
type RangeResult struct {
	// Updates are the matching records in ascending label order (at
	// most Limit of them, oldest first).
	Updates []core.KeyUpdate
	// Aggregate and Root are reserved: zero from an Archive's own Range,
	// the update group's identity and the zero root from RangeOf. No
	// production caller; kept for benchmark/ until ROADMAP item 1(i).
	Aggregate curve.Point
	Root      [32]byte
	// Total counts ALL archived records in [from, to], before Limit
	// truncation; Total > len(Updates) tells the client the response
	// was truncated and more requests are needed.
	Total int
}

// Ranger is the Range method of Archive on its own. No production
// caller; kept for benchmark/ until ROADMAP item 1(i).
type Ranger interface {
	Range(from, to string, limit int) (RangeResult, error)
}

// ErrBadRange reports an inverted or empty label interval.
var ErrBadRange = errors.New("archive: range from > to")

// RangeOf serves the label range [from, to] (inclusive, lexicographic —
// which is chronological for canonical schedule labels) from a, and
// tags the reserved Aggregate as the identity of codec's update group:
// a zero Point is not a point the BLS12-381 codec can encode. No
// production caller; kept for benchmark/ until ROADMAP item 1(i).
func RangeOf(a Archive, codec *wire.Codec, from, to string, limit int) (RangeResult, error) {
	res, err := a.Range(from, to, limit)
	if err != nil {
		return RangeResult{}, err
	}
	res.Aggregate = codec.Set.B.Infinity(backend.G2)
	return res, nil
}
