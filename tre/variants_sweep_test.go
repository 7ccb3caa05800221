package tre_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/baseline/bfibe"
	"timedrelease/internal/baseline/hybrid"
	"timedrelease/internal/baseline/rivest"
	"timedrelease/internal/hibe"
	"timedrelease/tre"
)

// TestVariantsNeverPanic calls every exported method of the §5 variants
// and the pairing baselines on both backends. Each call must either do
// its job or — for the one construction that is genuinely Type-1, the
// multi-server scheme — refuse with backend.ErrSymmetricOnly. A panic
// (the nil Type-1 context these packages used to dereference on
// BLS12-381) or any other error fails the sweep.
func TestVariantsNeverPanic(t *testing.T) {
	for _, set := range []*tre.Params{tre.MustPreset("Test160"), blsParams(t)} {
		t.Run(set.Name, func(t *testing.T) {
			for _, step := range variantSweep(t, set) {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s panicked: %v", step.name, r)
						}
					}()
					if err := step.call(); err != nil && !errors.Is(err, backend.ErrSymmetricOnly) {
						t.Errorf("%s: %v", step.name, err)
					}
				}()
			}
		})
	}
}

type sweepStep struct {
	name string
	call func() error
}

// want turns a wrong result into the step's error.
func want(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// opened checks a decryption: the gate passes through, anything else
// must be the plaintext.
func opened(got []byte, err error, msg []byte) error {
	if err != nil {
		return err
	}
	return want(bytes.Equal(got, msg), "opened %q, want %q", got, msg)
}

// variantSweep lists the calls in dependency order; later steps close
// over what earlier ones produced. Where a gated step left its result
// nil, the steps consuming it are gated too and never look at it.
func variantSweep(t *testing.T, set *tre.Params) []sweepStep {
	t.Helper()
	const label = "2026-07-05T12:00:00Z"
	msg := []byte("swept")
	scheme := tre.NewScheme(set)
	server, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := scheme.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := scheme.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	upd := scheme.IssueUpdate(server, label)

	var steps []sweepStep
	add := func(name string, call func() error) { steps = append(steps, sweepStep{name, call}) }

	// ID-TRE (§5.2), basic, FO and split-authority.
	id := tre.NewIDScheme(set)
	var (
		idPriv tre.IDUserPrivateKey
		idCT   *tre.IDCiphertext
		idCCA  *tre.IDCCACiphertext
	)
	add("idtre.ExtractUserKey+VerifyUserKey", func() error {
		idPriv = id.ExtractUserKey(server, "bob")
		return want(id.VerifyUserKey(server.Pub, idPriv), "extracted key does not verify")
	})
	add("idtre.Encrypt", func() (err error) {
		idCT, err = id.Encrypt(nil, server.Pub, "bob", label, msg)
		return err
	})
	add("idtre.Decrypt", func() error {
		got, err := id.Decrypt(idPriv, upd, idCT)
		return opened(got, err, msg)
	})
	add("idtre.EscrowDecrypt", func() error {
		got, err := id.EscrowDecrypt(server, "bob", label, idCT)
		return opened(got, err, msg)
	})
	add("idtre.EncryptCCA", func() (err error) {
		idCCA, err = id.EncryptCCA(nil, server.Pub, "bob", label, msg)
		return err
	})
	add("idtre.DecryptCCA", func() error {
		got, err := id.DecryptCCA(server.Pub, idPriv, upd, idCCA)
		return opened(got, err, msg)
	})
	add("idtre.SplitEncrypt+SplitDecrypt", func() error {
		ct, err := id.SplitEncrypt(nil, other.Pub, server.Pub, "bob", label, msg)
		if err != nil {
			return err
		}
		got, err := id.SplitDecrypt(id.ExtractUserKey(other, "bob"), upd, ct)
		return opened(got, err, msg)
	})

	// Policy locks (§5.3.2), basic and FO.
	pl := tre.NewPolicyScheme(set)
	policy, err := tre.ThresholdPolicy(2, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	var atts []tre.Attestation
	add("policylock.Attest+VerifyAttestation", func() error {
		atts = []tre.Attestation{pl.Attest(server, "c"), pl.Attest(server, "a")}
		return want(pl.VerifyAttestation(server.Pub, atts[0]), "attestation does not verify")
	})
	add("policylock.Encrypt+Decrypt", func() error {
		ct, err := pl.Encrypt(nil, server.Pub, user.Pub, policy, msg)
		if err != nil {
			return err
		}
		got, err := pl.Decrypt(user, atts, ct)
		return opened(got, err, msg)
	})
	add("policylock.EncryptCCA+DecryptCCA", func() error {
		ct, err := pl.EncryptCCA(nil, server.Pub, user.Pub, policy, msg)
		if err != nil {
			return err
		}
		got, err := pl.DecryptCCA(server.Pub, user, atts, ct)
		return opened(got, err, msg)
	})

	// HIBE time tree (§6) and the resilient cover sets built on it.
	rs, err := tre.NewResilientScheme(set, 4)
	if err != nil {
		t.Fatal(err)
	}
	var (
		root  *hibe.RootKey
		node  hibe.NodeKey
		cover []hibe.NodeKey
	)
	add("hibe.RootKeyGen", func() (err error) {
		root, err = rs.H.RootKeyGen(nil)
		return err
	})
	add("hibe.ChildOfRoot+Child+NodeFor", func() error {
		node = rs.H.Child(rs.H.ChildOfRoot(root, "0"), "1")
		direct, err := rs.H.NodeFor(root, []string{"0", "1"})
		if err != nil {
			return err
		}
		return want(set.B.Equal(backend.G2, node.S, direct.S) && node.Depth() == 2, "delegated key differs from NodeFor")
	})
	add("hibe.VerifyNodeKey", func() error {
		return want(rs.H.VerifyNodeKey(root.Pub, node), "node key does not verify")
	})
	add("hibe.MarshalNodeKey+UnmarshalNodeKey", func() error {
		back, err := rs.H.UnmarshalNodeKey(rs.H.MarshalNodeKey(node))
		if err != nil {
			return err
		}
		return want(rs.H.VerifyNodeKey(root.Pub, back), "decoded node key does not verify")
	})
	add("hibe.Encrypt+Marshal+Unmarshal+Decrypt", func() error {
		ct, err := rs.H.Encrypt(nil, root.Pub, node.Path, msg)
		if err != nil {
			return err
		}
		back, err := rs.H.UnmarshalCiphertext(rs.H.MarshalCiphertext(ct))
		if err != nil {
			return err
		}
		got, err := rs.H.Decrypt(node, back)
		return opened(got, err, msg)
	})
	add("resilient.PublishCover+MarshalCover+UnmarshalCover+VerifyCover", func() error {
		published, err := rs.PublishCover(root, 11)
		if err != nil {
			return err
		}
		cover, err = rs.UnmarshalCover(rs.MarshalCover(published))
		if err != nil {
			return err
		}
		return want(rs.VerifyCover(root.Pub, cover), "decoded cover does not verify")
	})
	add("resilient.Encrypt+LeafKey+Decrypt", func() error {
		ct, err := rs.Encrypt(nil, root.Pub, 7, msg)
		if err != nil {
			return err
		}
		if _, err := rs.LeafKey(cover, 7); err != nil {
			return err
		}
		got, err := rs.Decrypt(cover, 7, ct)
		return opened(got, err, msg)
	})

	// Multi-server (§5.3.5): the Type-1 construction. On an asymmetric
	// set every step must answer with the gate (or false), whatever it is
	// handed.
	multi := tre.NewMultiScheme(set)
	group := tre.ServerGroup{server.Pub, other.Pub}
	var (
		multiUser *tre.MultiUserKeyPair
		multiCT   *tre.MultiCiphertext
	)
	add("multiserver.SumSG", func() error {
		return want(!multi.SumSG(group).IsInfinity(), "Σ sᵢGᵢ is the identity")
	})
	add("multiserver.UserKeyGen", func() (err error) {
		multiUser, err = multi.UserKeyGen(group, nil)
		return err
	})
	add("multiserver.UserKeyFromScalar", func() error {
		_, err := multi.UserKeyFromScalar(group, big.NewInt(7))
		return err
	})
	add("multiserver.VerifyUserPublicKey", func() error {
		var pub tre.MultiUserPublicKey
		if multiUser != nil {
			pub = multiUser.Pub
		}
		return want(multi.VerifyUserPublicKey(group, pub) == !set.Asymmetric(), "combined-key check gave the wrong answer")
	})
	add("multiserver.Encrypt", func() (err error) {
		var pub tre.MultiUserPublicKey
		if multiUser != nil {
			pub = multiUser.Pub
		}
		multiCT, err = multi.Encrypt(nil, group, pub, label, msg)
		return err
	})
	add("multiserver.Decrypt", func() error {
		ups := []tre.KeyUpdate{upd, scheme.IssueUpdate(other, label)}
		got, err := multi.Decrypt(multiUser, ups, multiCT)
		return opened(got, err, msg)
	})

	// Baselines: BF-IBE, the footnote-3 hybrid and the Rivest key list.
	ibe := bfibe.NewScheme(set)
	var (
		master   *bfibe.MasterKey
		labelKey bfibe.PrivateKey
	)
	add("bfibe.MasterKeyGen+Extract+Encrypt+Decrypt", func() (err error) {
		if master, err = ibe.MasterKeyGen(nil); err != nil {
			return err
		}
		labelKey = ibe.Extract(master, label)
		ct, err := ibe.Encrypt(nil, master.Pub, label, msg)
		if err != nil {
			return err
		}
		got, err := ibe.Decrypt(labelKey, ct)
		return opened(got, err, msg)
	})
	hyb := hybrid.NewScheme(set)
	add("hybrid.ReceiverKeyGen+Encrypt+Decrypt+Size", func() error {
		receiver, err := hyb.ReceiverKeyGen(nil)
		if err != nil {
			return err
		}
		ct, err := hyb.Encrypt(nil, master.Pub, receiver.Pub, label, msg)
		if err != nil {
			return err
		}
		got, err := hyb.Decrypt(receiver, labelKey, ct)
		if err := opened(got, err, msg); err != nil {
			return err
		}
		return want(hyb.Size(len(msg)) > len(msg), "Size does not count the headers")
	})
	add("rivest.ExtendHorizon+Encrypt+Release+Decrypt", func() error {
		srv := rivest.NewServer(set)
		if err := srv.ExtendHorizon(nil, 2); err != nil {
			return err
		}
		ct, err := rivest.Encrypt(nil, set, srv.PublicKeys(), 0, msg)
		if err != nil {
			return err
		}
		priv, err := srv.Release(0)
		if err != nil {
			return err
		}
		got, err := rivest.Decrypt(set, priv, ct)
		if err := opened(got, err, msg); err != nil {
			return err
		}
		return want(srv.Horizon() == 2 && srv.StoredKeyBytes() > 0 && srv.PublishedKeyBytes() > 0, "horizon accounting is off")
	})
	return steps
}
