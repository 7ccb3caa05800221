package bench

import (
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/hibe"
	"timedrelease/internal/resilient"
	"timedrelease/internal/wire"
)

// RunE10 evaluates the future-work extension (§6): resilience to missing
// updates via the HIBE time tree, against the paper's own fallback (the
// flat archive a receiver must download k updates from). It reports the
// catch-up download size after missing k epochs and the decryption-cost
// premium the tree pays.
func RunE10(cfg Config) (*Table, error) {
	set, err := cfg.set()
	if err != nil {
		return nil, err
	}
	const depth = 16 // 65536 epochs
	iters := cfg.iters(10)

	rs, err := resilient.NewScheme(set, depth)
	if err != nil {
		return nil, err
	}
	root, err := rs.H.RootKeyGen(nil)
	if err != nil {
		return nil, err
	}

	// Sizes.
	g1, g2 := set.B.PointLen(backend.G1), set.B.PointLen(backend.G2)
	scalar := (set.Q.BitLen() + 7) / 8
	flatSc := core.NewScheme(set)
	server, err := flatSc.ServerKeyGen(nil)
	if err != nil {
		return nil, err
	}
	codec := wire.NewCodec(set)
	updSize := len(codec.MarshalKeyUpdate(flatSc.IssueUpdate(server, "2026-07-05T12:00:00Z")))
	bundleSize := func(k hibe.NodeKey) int {
		return g2 + g1*len(k.Qs) + scalar // S ∈ G2 + Q-list ∈ G1 + delegation secret
	}

	t := &Table{
		ID:    "E10",
		Title: fmt.Sprintf("Catch-up cost after missing k updates: flat archive vs HIBE time tree (%s, depth %d)", set.Name, depth),
		Claim: "future work (§6): \"we wish to design schemes resilient to missing updates ... using hierarchical identity based encryption\"",
		Columns: []string{
			"missed epochs k", "flat archive download", "tree cover download", "cover keys",
		},
	}

	now := uint64(40000)
	ks := []uint64{1, 10, 100, 1000, 10000}
	if cfg.Quick {
		ks = []uint64{1, 10, 100}
	}
	for _, k := range ks {
		cover, err := rs.PublishCover(root, now)
		if err != nil {
			return nil, err
		}
		var coverBytes int
		for _, nk := range cover {
			coverBytes += bundleSize(nk)
		}
		t.Add(fmt.Sprintf("%d", k),
			bytesHuman(int64(uint64(updSize)*k)),
			bytesHuman(int64(coverBytes)),
			fmt.Sprintf("%d", len(cover)))
	}

	// Decryption-cost premium.
	msg := make([]byte, 64)
	epoch := now - 5
	treeCT, err := rs.Encrypt(nil, root.Pub, epoch, msg)
	if err != nil {
		return nil, err
	}
	cover, err := rs.PublishCover(root, now)
	if err != nil {
		return nil, err
	}
	leaf, err := rs.LeafKey(cover, epoch)
	if err != nil {
		return nil, err
	}
	treeDec := timeOp(iters, func() {
		if _, err := rs.H.Decrypt(leaf, treeCT); err != nil {
			panic(err)
		}
	})
	deriveLeaf := timeOp(iters, func() {
		if _, err := rs.LeafKey(cover, epoch); err != nil {
			panic(err)
		}
	})

	user, err := flatSc.UserKeyGen(server.Pub, nil)
	if err != nil {
		return nil, err
	}
	upd := flatSc.IssueUpdate(server, "epoch")
	flatCT, err := flatSc.Encrypt(nil, server.Pub, user.Pub, "epoch", msg)
	if err != nil {
		return nil, err
	}
	flatDec := timeOp(iters, func() {
		if _, err := flatSc.Decrypt(user, upd, flatCT); err != nil {
			panic(err)
		}
	})
	treeCTSize := g1 + len(treeCT.Us)*g2 // U₀ ∈ G1, U_i ∈ G2

	t.Note("flat download grows linearly with k; the tree cover stays ≤ depth+1 bundles no matter how long the receiver was offline")
	t.Note("price of resilience: tree ciphertext header = %d points (%s vs flat %s); tree decrypt %s + leaf derivation %s vs flat decrypt %s",
		1+len(treeCT.Us), bytesHuman(int64(treeCTSize)), bytesHuman(int64(g1)), ms(treeDec), ms(deriveLeaf), ms(flatDec))
	return t, nil
}
