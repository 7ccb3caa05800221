package threshold

// Differential tests pinning the threshold scheme against the
// single-server core.Scheme: the same label must yield the byte-
// identical update (and hence the identical decapsulated GT), and every
// failure mode must surface a typed error.

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
)

// A quorum combine and a single server holding the recovered group
// secret must produce the SAME update, byte for byte — the threshold
// network is indistinguishable from one server to every receiver.
func TestCombineMatchesSingleServerScheme(t *testing.T) {
	set, setup := deal(t, 3, 5)
	sc := core.NewScheme(set)

	s, err := RecoverSecret(set, []Share{setup.Shares[1], setup.Shares[3], setup.Shares[4]}, setup.K)
	if err != nil {
		t.Fatalf("RecoverSecret: %v", err)
	}
	single := &core.ServerKeyPair{S: s, Pub: setup.GroupPub}
	ref := sc.IssueUpdate(single, label)
	if !sc.VerifyUpdate(setup.GroupPub, ref) {
		t.Fatal("recovered secret does not reproduce the group key")
	}

	partials := []PartialUpdate{
		IssuePartial(set, setup.Shares[0], label),
		IssuePartial(set, setup.Shares[2], label),
		IssuePartial(set, setup.Shares[4], label),
	}
	combined, err := Combine(set, setup.GroupPub, partials, setup.K)
	if err != nil {
		t.Fatalf("Combine: %v", err)
	}

	if combined.Label != ref.Label {
		t.Fatalf("labels differ: %q vs %q", combined.Label, ref.Label)
	}
	if !bytes.Equal(set.B.AppendPoint(nil, backend.G2, combined.Point), set.B.AppendPoint(nil, backend.G2, ref.Point)) {
		t.Fatal("combined update differs from the single-server update for the same label")
	}

	// Same label ⇒ same decapsulated GT: a ciphertext decrypts
	// identically with either update.
	user, err := sc.UserKeyGen(setup.GroupPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("differential: threshold vs single server")
	ct, err := sc.EncryptCCA(nil, setup.GroupPub, user.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}
	viaCombined, err := sc.DecryptCCA(setup.GroupPub, user, combined, ct)
	if err != nil {
		t.Fatalf("decrypt via combined update: %v", err)
	}
	viaSingle, err := sc.DecryptCCA(setup.GroupPub, user, ref, ct)
	if err != nil {
		t.Fatalf("decrypt via single-server update: %v", err)
	}
	if !bytes.Equal(viaCombined, msg) || !bytes.Equal(viaCombined, viaSingle) {
		t.Fatal("decryptions disagree")
	}
}

func TestRecoverSecretSubsetsAgree(t *testing.T) {
	set, setup := deal(t, 3, 5)
	ref, err := RecoverSecret(set, setup.Shares[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range [][]int{{0, 1, 3}, {2, 3, 4}, {0, 2, 4}, {1, 2, 4}} {
		sub := []Share{setup.Shares[idx[0]], setup.Shares[idx[1]], setup.Shares[idx[2]]}
		got, err := RecoverSecret(set, sub, 3)
		if err != nil {
			t.Fatalf("RecoverSecret(%v): %v", idx, err)
		}
		if got.Cmp(ref) != 0 {
			t.Fatalf("subset %v recovered a different secret", idx)
		}
	}
	// Sanity: no individual share IS the secret.
	for _, sh := range setup.Shares {
		if sh.S.Cmp(ref) == 0 {
			t.Fatal("a single share equals the group secret")
		}
	}
}

func TestWrongQuorumReturnsTypedError(t *testing.T) {
	set, setup := deal(t, 3, 5)

	partials := []PartialUpdate{
		IssuePartial(set, setup.Shares[0], label),
		IssuePartial(set, setup.Shares[1], label),
	}
	var qe *QuorumError
	if _, err := Combine(set, setup.GroupPub, partials, 3); !errors.As(err, &qe) {
		t.Fatalf("Combine below quorum: got %v, want *QuorumError", err)
	} else if qe.Need != 3 || qe.Have != 2 {
		t.Fatalf("QuorumError = need %d have %d, want need 3 have 2", qe.Need, qe.Have)
	}

	// Duplicate indices don't count toward the quorum.
	dup := []PartialUpdate{partials[0], partials[0], partials[1]}
	qe = nil
	if _, err := Combine(set, setup.GroupPub, dup, 3); !errors.As(err, &qe) {
		t.Fatalf("Combine with duplicates: got %v, want *QuorumError", err)
	} else if qe.Have != 2 {
		t.Fatalf("duplicates counted: have = %d, want 2", qe.Have)
	}

	qe = nil
	if _, err := RecoverSecret(set, setup.Shares[:2], 3); !errors.As(err, &qe) {
		t.Fatalf("RecoverSecret below quorum: got %v, want *QuorumError", err)
	}
}

func TestMixedDealingsReturnTypedError(t *testing.T) {
	set, setupA := deal(t, 2, 3)
	setupB, err := Deal(set, nil, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One partial from each dealing: individually well-formed points,
	// but they interpolate to garbage under either group key.
	mixed := []PartialUpdate{
		IssuePartial(set, setupA.Shares[0], label),
		IssuePartial(set, setupB.Shares[1], label),
	}
	if _, err := Combine(set, setupA.GroupPub, mixed, 2); !errors.Is(err, ErrBadCombination) {
		t.Fatalf("mixed dealings under key A: got %v, want ErrBadCombination", err)
	}
	if _, err := Combine(set, setupB.GroupPub, mixed, 2); !errors.Is(err, ErrBadCombination) {
		t.Fatalf("mixed dealings under key B: got %v, want ErrBadCombination", err)
	}
}
