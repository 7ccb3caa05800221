package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"timedrelease/internal/backend"
)

// Property tests over randomly drawn messages, labels and keys: the
// invariants that must hold for EVERY input, checked with testing/quick.

func TestPropertyRoundTripAnyMessageAnyLabel(t *testing.T) {
	e := newTestEnv(t)
	prop := func(msg []byte, label string) bool {
		ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, label, msg)
		if err != nil {
			return false
		}
		upd := e.sc.IssueUpdate(e.server, label)
		got, err := e.sc.Decrypt(e.user, upd, ct)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCCARoundTripAndTamperReject(t *testing.T) {
	e := newTestEnv(t)
	upd := e.sc.IssueUpdate(e.server, testLabel)
	prop := func(msg []byte, flipByte uint8) bool {
		ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, testLabel, msg)
		if err != nil {
			return false
		}
		got, err := e.sc.DecryptCCA(e.server.Pub, e.user, upd, ct)
		if err != nil || !bytes.Equal(got, msg) {
			return false
		}
		// Any single-byte flip anywhere in W (or V when non-empty) must be
		// rejected.
		ct.W[int(flipByte)%len(ct.W)] ^= 1
		_, err = e.sc.DecryptCCA(e.server.Pub, e.user, upd, ct)
		return err != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCiphertextsAreRandomised(t *testing.T) {
	// Encrypting the same message twice must give distinct ciphertexts
	// (fresh r each time) that both decrypt correctly.
	e := newTestEnv(t)
	upd := e.sc.IssueUpdate(e.server, testLabel)
	prop := func(msg []byte) bool {
		if len(msg) == 0 {
			msg = []byte{0}
		}
		c1, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, testLabel, msg)
		if err != nil {
			return false
		}
		c2, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, testLabel, msg)
		if err != nil {
			return false
		}
		if e.sc.Set.B.Equal(backend.G1, c1.U, c2.U) || bytes.Equal(c1.V, c2.V) {
			return false // randomness reuse!
		}
		g1, err := e.sc.Decrypt(e.user, upd, c1)
		if err != nil {
			return false
		}
		g2, err := e.sc.Decrypt(e.user, upd, c2)
		if err != nil {
			return false
		}
		return bytes.Equal(g1, msg) && bytes.Equal(g2, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistinctLabelsGiveDistinctUpdates(t *testing.T) {
	e := newTestEnv(t)
	seen := map[string]string{}
	prop := func(label string) bool {
		upd := e.sc.IssueUpdate(e.server, label)
		if !e.sc.VerifyUpdate(e.server.Pub, upd) {
			return false
		}
		key := upd.Point.String()
		if prev, ok := seen[key]; ok {
			return prev == label // same point ⇒ must be the same label
		}
		seen[key] = label
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyUpdateBindsExactLabel(t *testing.T) {
	// An update never verifies under any other label (tests the BLS
	// binding across random label pairs).
	e := newTestEnv(t)
	prop := func(l1, l2 string) bool {
		upd := e.sc.IssueUpdate(e.server, l1)
		relabelled := upd
		relabelled.Label = l2
		ok := e.sc.VerifyUpdate(e.server.Pub, relabelled)
		if l1 == l2 {
			return ok
		}
		return !ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEpochKeyMatchesDirectDecryption(t *testing.T) {
	e := newTestEnv(t)
	prop := func(msg []byte, label string) bool {
		upd := e.sc.IssueUpdate(e.server, label)
		ek := e.sc.DeriveEpochKey(e.user, upd)
		ct, err := e.sc.Encrypt(nil, e.server.Pub, e.user.Pub, label, msg)
		if err != nil {
			return false
		}
		direct, err := e.sc.Decrypt(e.user, upd, ct)
		if err != nil {
			return false
		}
		insulated, err := e.sc.DecryptWithEpochKey(ek, ct)
		if err != nil {
			return false
		}
		return bytes.Equal(direct, insulated) && bytes.Equal(direct, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
