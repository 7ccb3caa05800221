// Package resilient implements the paper's future-work proposal (§6):
// timed-release encryption that tolerates missing updates, built from a
// HIBE time tree "in a way similar to forward secure encryption" (CHK).
//
// Epochs 0 … 2^Depth−1 are the leaves of a binary tree; each epoch's
// decryption capability is the HIBE key of its leaf. When epoch t
// arrives, the server publishes the key bundles of the COVER SET of
// [0, t] — the ≤ Depth+1 subtree roots whose leaves are exactly
// 0 … t. Anyone holding the cover can derive the leaf key of ANY past
// epoch, so a receiver who was offline for a month needs one small
// download, not one update per missed epoch. Epochs > t live in
// subtrees whose keys remain with the server.
//
// The trade-offs against the flat scheme (measured in experiment E10):
// ciphertexts grow to Depth group elements and decryption needs a
// Depth-factor pairing product, in exchange for O(log N) recovery
// instead of O(missed).
package resilient

import (
	"errors"
	"fmt"
	"io"

	"timedrelease/internal/hibe"
	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

// Scheme is a missing-update-resilient timed-release scheme over a
// binary time tree of the given depth (covering 2^Depth epochs).
type Scheme struct {
	H     *hibe.Scheme
	Depth int
}

// NewScheme returns a time-tree scheme. Depth must be in [1, 62].
func NewScheme(set *params.Set, depth int) (*Scheme, error) {
	if depth < 1 || depth > 62 {
		return nil, errors.New("resilient: depth must be in [1, 62]")
	}
	return &Scheme{
		H:     hibe.NewScheme(set, fmt.Sprintf("timetree-%d", depth)),
		Depth: depth,
	}, nil
}

// Epochs returns the number of addressable epochs, 2^Depth.
func (sc *Scheme) Epochs() uint64 { return 1 << sc.Depth }

// PathOf returns the leaf path of an epoch: its Depth bits, most
// significant first, as "0"/"1" labels.
func (sc *Scheme) PathOf(epoch uint64) ([]string, error) {
	if epoch >= sc.Epochs() {
		return nil, fmt.Errorf("resilient: epoch %d out of range [0, %d)", epoch, sc.Epochs())
	}
	path := make([]string, sc.Depth)
	for i := 0; i < sc.Depth; i++ {
		bit := (epoch >> (sc.Depth - 1 - i)) & 1
		path[i] = string('0' + byte(bit))
	}
	return path, nil
}

// Cover returns the node paths of the minimal cover of [0, t]: for each
// 1-bit of the leaf path, the sibling 0-subtree to its left, plus the
// leaf t itself. |Cover| ≤ Depth+1.
func (sc *Scheme) Cover(t uint64) ([][]string, error) {
	leaf, err := sc.PathOf(t)
	if err != nil {
		return nil, err
	}
	var cover [][]string
	for i, bit := range leaf {
		if bit == "1" {
			node := append(append([]string(nil), leaf[:i]...), "0")
			cover = append(cover, node)
		}
	}
	cover = append(cover, leaf)
	return cover, nil
}

// PublishCover computes the key bundles for the cover of [0, t] — what
// the server publishes when epoch t arrives. The server derives each
// bundle statelessly from its root key.
func (sc *Scheme) PublishCover(root *hibe.RootKey, t uint64) ([]hibe.NodeKey, error) {
	paths, err := sc.Cover(t)
	if err != nil {
		return nil, err
	}
	keys := make([]hibe.NodeKey, len(paths))
	for i, p := range paths {
		k, err := sc.H.NodeFor(root, p)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}

// Encrypt seals msg so it opens at the given epoch (combine with the
// receiver-bound layer of the flat scheme as needed; this package
// focuses on the time capability).
func (sc *Scheme) Encrypt(rng io.Reader, pub hibe.RootPublicKey, epoch uint64, msg []byte) (*hibe.Ciphertext, error) {
	path, err := sc.PathOf(epoch)
	if err != nil {
		return nil, err
	}
	return sc.H.Encrypt(rng, pub, path, msg)
}

// LeafKey finds a cover bundle that dominates the epoch and derives the
// leaf key from it. ErrNotCovered means every bundle is for a disjoint
// range — i.e. the epoch is still in the future relative to the cover.
func (sc *Scheme) LeafKey(cover []hibe.NodeKey, epoch uint64) (hibe.NodeKey, error) {
	leaf, err := sc.PathOf(epoch)
	if err != nil {
		return hibe.NodeKey{}, err
	}
	for _, nk := range cover {
		if !isPrefix(nk.Path, leaf) {
			continue
		}
		k := nk
		for _, label := range leaf[len(nk.Path):] {
			k = sc.H.Child(k, label)
		}
		return k, nil
	}
	return hibe.NodeKey{}, ErrNotCovered
}

// Decrypt derives the epoch's leaf key from the cover and decrypts.
func (sc *Scheme) Decrypt(cover []hibe.NodeKey, epoch uint64, ct *hibe.Ciphertext) ([]byte, error) {
	k, err := sc.LeafKey(cover, epoch)
	if err != nil {
		return nil, err
	}
	return sc.H.Decrypt(k, ct)
}

// ErrNotCovered reports that the supplied cover does not reach the
// requested epoch (it has not been released yet).
var ErrNotCovered = errors.New("resilient: epoch not covered by the published key set")

// CoverSize returns |Cover([0,t])| without deriving keys — used by the
// E10 size accounting.
func (sc *Scheme) CoverSize(t uint64) (int, error) {
	paths, err := sc.Cover(t)
	if err != nil {
		return 0, err
	}
	return len(paths), nil
}

func isPrefix(prefix, full []string) bool {
	if len(prefix) > len(full) {
		return false
	}
	for i := range prefix {
		if prefix[i] != full[i] {
			return false
		}
	}
	return true
}

// MarshalCover serialises a cover publication: u16 count, then each
// bundle length-prefixed (u32). This is what a resilient time authority
// publishes per epoch — static bytes servable from any dumb channel,
// verifiable by VerifyCover at the receiver.
func (sc *Scheme) MarshalCover(cover []hibe.NodeKey) []byte {
	out := wire.AppendU16(nil, len(cover))
	for _, k := range cover {
		out = wire.AppendBytes32(out, sc.H.MarshalNodeKey(k))
	}
	return out
}

// UnmarshalCover decodes a cover publication.
func (sc *Scheme) UnmarshalCover(data []byte) ([]hibe.NodeKey, error) {
	r := wire.NewReader(sc.H.Set, data)
	n, err := r.U16()
	if err != nil {
		return nil, fmt.Errorf("resilient: cover size: %w", err)
	}
	if n == 0 || n > sc.Depth+1 {
		return nil, fmt.Errorf("resilient: implausible cover size %d", n)
	}
	out := make([]hibe.NodeKey, n)
	for i := range out {
		b, err := r.Bytes32()
		if err != nil {
			return nil, fmt.Errorf("resilient: cover entry %d: %w", i, err)
		}
		if out[i], err = sc.H.UnmarshalNodeKey(b); err != nil {
			return nil, fmt.Errorf("resilient: cover entry %d: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}

// VerifyCover checks every bundle of a received cover against the root
// public key; receivers run this before trusting covers from an
// untrusted mirror, exactly as flat clients verify key updates.
func (sc *Scheme) VerifyCover(pub hibe.RootPublicKey, cover []hibe.NodeKey) bool {
	if len(cover) == 0 {
		return false
	}
	for _, k := range cover {
		if len(k.Path) > sc.Depth {
			return false
		}
		if !sc.H.VerifyNodeKey(pub, k) {
			return false
		}
	}
	return true
}
