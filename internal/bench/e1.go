package bench

import (
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/baseline/bfibe"
	"timedrelease/internal/baseline/hybrid"
	"timedrelease/internal/core"
	"timedrelease/internal/idtre"
)

// RunE1 reproduces the paper's efficiency claim (§1): compared with the
// generic hybrid PKE+IBE construction of footnote 3, TRE "could have 50%
// reduction in most cases" — measured here as ciphertext size and
// encrypt/decrypt latency for TRE, ID-TRE and the hybrid baseline.
func RunE1(cfg Config) (*Table, error) {
	set, err := cfg.set()
	if err != nil {
		return nil, err
	}
	const label = "2026-07-05T12:00:00Z"
	iters := cfg.iters(20)

	tre := core.NewScheme(set)
	server, err := tre.ServerKeyGen(nil)
	if err != nil {
		return nil, err
	}
	user, err := tre.UserKeyGen(server.Pub, nil)
	if err != nil {
		return nil, err
	}
	upd := tre.IssueUpdate(server, label)

	id := idtre.NewScheme(set)
	idPriv := id.ExtractUserKey(server, "receiver@example.org")

	hyb := hybrid.NewScheme(set)
	ibe := bfibe.NewScheme(set)
	master := &bfibe.MasterKey{S: server.S, Pub: bfibe.MasterPublicKey{G: server.Pub.G, SG: server.Pub.SG}}
	hybReceiver, err := hyb.ReceiverKeyGen(nil)
	if err != nil {
		return nil, err
	}
	hybLabelKey := ibe.Extract(master, label)

	point := set.B.PointLen(backend.G1) // every ciphertext header is a G1 point

	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("TRE vs hybrid PKE+IBE vs ID-TRE (%s)", set.Name),
		Claim: `"Our schemes could have 50% reduction in most cases" vs the footnote-3 hybrid construction`,
		Columns: []string{
			"scheme", "msg", "ciphertext", "overhead", "encrypt", "decrypt",
		},
	}

	for _, msgLen := range []int{32, 1024} {
		msg := make([]byte, msgLen)

		// TRE basic.
		treCT, err := tre.Encrypt(nil, server.Pub, user.Pub, label, msg)
		if err != nil {
			return nil, err
		}
		treSize := point + len(treCT.V)
		encTRE := timeOp(iters, func() {
			if _, err := tre.Encrypt(nil, server.Pub, user.Pub, label, msg); err != nil {
				panic(err)
			}
		})
		decTRE := timeOp(iters, func() {
			if _, err := tre.Decrypt(user, upd, treCT); err != nil {
				panic(err)
			}
		})
		t.Add("TRE (this paper)", fmt.Sprintf("%d B", msgLen), bytesHuman(int64(treSize)),
			bytesHuman(int64(treSize-msgLen)), ms(encTRE), ms(decTRE))

		// ID-TRE.
		idCT, err := id.Encrypt(nil, server.Pub, "receiver@example.org", label, msg)
		if err != nil {
			return nil, err
		}
		idSize := point + len(idCT.V)
		encID := timeOp(iters, func() {
			if _, err := id.Encrypt(nil, server.Pub, "receiver@example.org", label, msg); err != nil {
				panic(err)
			}
		})
		decID := timeOp(iters, func() {
			if _, err := id.Decrypt(idPriv, upd, idCT); err != nil {
				panic(err)
			}
		})
		t.Add("ID-TRE (§5.2)", fmt.Sprintf("%d B", msgLen), bytesHuman(int64(idSize)),
			bytesHuman(int64(idSize-msgLen)), ms(encID), ms(decID))

		// Hybrid PKE+IBE.
		hybCT, err := hyb.Encrypt(nil, master.Pub, hybReceiver.Pub, label, msg)
		if err != nil {
			return nil, err
		}
		hybSize := hyb.Size(msgLen)
		encHyb := timeOp(iters, func() {
			if _, err := hyb.Encrypt(nil, master.Pub, hybReceiver.Pub, label, msg); err != nil {
				panic(err)
			}
		})
		decHyb := timeOp(iters, func() {
			if _, err := hyb.Decrypt(hybReceiver, hybLabelKey, hybCT); err != nil {
				panic(err)
			}
		})
		t.Add("hybrid PKE+IBE (fn. 3)", fmt.Sprintf("%d B", msgLen), bytesHuman(int64(hybSize)),
			bytesHuman(int64(hybSize-msgLen)), ms(encHyb), ms(decHyb))

		reduction := 100 * (1 - float64(treSize-msgLen)/float64(hybSize-msgLen))
		t.Note("msg=%dB: TRE ciphertext overhead is %.0f%% smaller than the hybrid's (%d B vs %d B)",
			msgLen, reduction, treSize-msgLen, hybSize-msgLen)
	}

	// CCA transforms: the paper offers Fujisaki–Okamoto and REACT as
	// interchangeable conversions; measure both on 32-byte messages.
	{
		msg := make([]byte, 32)
		foCT, err := tre.EncryptCCA(nil, server.Pub, user.Pub, label, msg)
		if err != nil {
			return nil, err
		}
		reactCT, err := tre.EncryptREACT(nil, server.Pub, user.Pub, label, msg)
		if err != nil {
			return nil, err
		}
		encFO := timeOp(iters, func() {
			if _, err := tre.EncryptCCA(nil, server.Pub, user.Pub, label, msg); err != nil {
				panic(err)
			}
		})
		decFO := timeOp(iters, func() {
			if _, err := tre.DecryptCCA(server.Pub, user, upd, foCT); err != nil {
				panic(err)
			}
		})
		encREACT := timeOp(iters, func() {
			if _, err := tre.EncryptREACT(nil, server.Pub, user.Pub, label, msg); err != nil {
				panic(err)
			}
		})
		decREACT := timeOp(iters, func() {
			if _, err := tre.DecryptREACT(user, upd, reactCT); err != nil {
				panic(err)
			}
		})
		foSize := point + len(foCT.W) + len(foCT.V)
		reactSize := point + len(reactCT.W) + len(reactCT.V) + len(reactCT.Tag)
		t.Add("TRE + FO (CCA)", "32 B", bytesHuman(int64(foSize)), bytesHuman(int64(foSize-32)), ms(encFO), ms(decFO))
		t.Add("TRE + REACT (CCA)", "32 B", bytesHuman(int64(reactSize)), bytesHuman(int64(reactSize-32)), ms(encREACT), ms(decREACT))
		t.Note("CCA decryption: FO pays a re-encryption scalar multiplication; REACT pays only a hash check — the trade-off §5 leaves implicit")
	}

	// The verification step of Encryption step 1 is a per-receiver,
	// cacheable cost; report it separately.
	verify := timeOp(iters, func() {
		if !tre.VerifyUserPublicKey(server.Pub, user.Pub) {
			panic("verify failed")
		}
	})
	t.Note("TRE encryption step 1 (ê(aG,sG)=ê(G,asG) receiver-key check) costs %s and is cacheable per receiver; it is included in the TRE encrypt column", ms(verify))
	return t, nil
}
