package bench

import (
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/multiserver"
)

// RunE5 measures the multi-server construction of §5.3.5: ciphertext
// size and encrypt/decrypt latency as the number of servers grows, plus
// the shared-vs-separate final-exponentiation ablation in decryption.
func RunE5(cfg Config) (*Table, error) {
	set, err := cfg.set()
	if err != nil {
		return nil, err
	}
	const label = "2026-07-05T12:00:00Z"
	iters := cfg.iters(10)
	ns := []int{1, 2, 3, 5, 8}
	if cfg.Quick {
		ns = []int{1, 2, 3}
	}

	sc := multiserver.NewScheme(set)
	tre := core.NewScheme(set)
	t := &Table{
		ID:    "E5",
		Title: fmt.Sprintf("Multi-server TRE cost vs number of servers (%s)", set.Name),
		Claim: "using N servers forces a cheating receiver to collude with all of them (§5.3.5)",
		Columns: []string{
			"servers", "ciphertext", "encrypt", "decrypt (shared final exp)", "decrypt (separate)", "speedup",
		},
	}

	msg := make([]byte, 64)
	for _, n := range ns {
		var (
			keys  []*core.ServerKeyPair
			group multiserver.ServerGroup
		)
		for i := 0; i < n; i++ {
			k, err := set.B.RandScalar(nil)
			if err != nil {
				return nil, err
			}
			kp, err := bls.GenerateKeyWithGenerator(set, set.B.ScalarMult(backend.G1, k, set.G), nil)
			if err != nil {
				return nil, err
			}
			keys = append(keys, kp)
			group = append(group, kp.Pub)
		}
		user, err := sc.UserKeyGen(group, nil)
		if err != nil {
			return nil, err
		}
		ct, err := sc.Encrypt(nil, group, user.Pub, label, msg)
		if err != nil {
			return nil, err
		}
		updates := make([]core.KeyUpdate, n)
		for i, k := range keys {
			updates[i] = tre.IssueUpdate(k, label)
		}

		size := n*set.B.PointLen(backend.G1) + len(ct.V)
		enc := timeOp(iters, func() {
			if _, err := sc.Encrypt(nil, group, user.Pub, label, msg); err != nil {
				panic(err)
			}
		})
		decShared := timeOp(iters, func() {
			if _, err := sc.Decrypt(user, updates, ct); err != nil {
				panic(err)
			}
		})
		// The ablation: the same N factors as N independent full pairings
		// multiplied in GT, instead of Decrypt's one PairProduct.
		var sink backend.GT
		decSep := timeOp(iters, func() {
			acc := set.B.GTOne()
			for i, u := range ct.Us {
				acc = set.B.GTMul(acc, set.B.Pair(set.B.ScalarMult(backend.G1, user.A, u), updates[i].Point))
			}
			sink = acc
		})
		_ = sink
		t.Add(fmt.Sprintf("%d", n), bytesHuman(int64(size)), ms(enc), ms(decShared), ms(decSep),
			fmt.Sprintf("%.2fx", float64(decSep)/float64(decShared)))
	}
	t.Note("ciphertext carries one header point rGᵢ per server; the masked payload is shared")
	t.Note("shared column multiplies the N Miller values and performs ONE final exponentiation (the PairProduct optimisation)")
	t.Note("PairProduct additionally runs the N Miller loops on a GOMAXPROCS-bounded worker pool with a deterministic index-order merge; on multi-core hosts the shared column scales with cores")
	return t, nil
}
