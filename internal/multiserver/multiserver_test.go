package multiserver

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
	"timedrelease/internal/rohash"
)

const testLabel = "2026-07-05T12:00:00Z"

type env struct {
	sc      *Scheme
	tre     *core.Scheme
	servers []*core.ServerKeyPair
	group   ServerGroup
	user    *UserKeyPair
}

func newEnv(t *testing.T, n int) *env {
	t.Helper()
	set := params.MustPreset("Test160")
	sc := NewScheme(set)
	tre := core.NewScheme(set)
	e := &env{sc: sc, tre: tre}
	for i := 0; i < n; i++ {
		// Each server gets its own generator, the general case of §5.3.5.
		k, err := set.B.RandScalar(nil)
		if err != nil {
			t.Fatalf("RandScalar: %v", err)
		}
		kp, err := bls.GenerateKeyWithGenerator(set, set.B.ScalarMult(backend.G1, k, set.G), nil)
		if err != nil {
			t.Fatalf("GenerateKeyWithGenerator: %v", err)
		}
		e.servers = append(e.servers, kp)
		e.group = append(e.group, kp.Pub)
	}
	user, err := sc.UserKeyGen(e.group, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	e.user = user
	return e
}

func (e *env) updates(label string) []core.KeyUpdate {
	ups := make([]core.KeyUpdate, len(e.servers))
	for i, s := range e.servers {
		ups[i] = e.tre.IssueUpdate(s, label)
	}
	return ups
}

// separateProduct is the N-independent-pairings reference for
// decapsulate: Π ê(a·Uᵢ, I_Tᵢ) with a final exponentiation per factor.
func separateProduct(e *env, ups []core.KeyUpdate, ct *Ciphertext) backend.GT {
	b := e.sc.Set.B
	acc := b.GTOne()
	for i, u := range ct.Us {
		acc = b.GTMul(acc, b.Pair(b.ScalarMult(backend.G1, e.user.A, u), ups[i].Point))
	}
	return acc
}

func TestRoundTripAcrossGroupSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		e := newEnv(t, n)
		msg := []byte("requires every server's update")
		ct, err := e.sc.Encrypt(nil, e.group, e.user.Pub, testLabel, msg)
		if err != nil {
			t.Fatalf("n=%d Encrypt: %v", n, err)
		}
		if len(ct.Us) != n {
			t.Fatalf("n=%d: ciphertext has %d headers", n, len(ct.Us))
		}
		got, err := e.sc.Decrypt(e.user, e.updates(testLabel), ct)
		if err != nil {
			t.Fatalf("n=%d Decrypt: %v", n, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("n=%d round trip mismatch", n)
		}
	}
}

func TestSharedAndSeparateFinalExpAgree(t *testing.T) {
	e := newEnv(t, 3)
	msg := []byte("ablation: one final exponentiation vs three")
	ct, err := e.sc.Encrypt(nil, e.group, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	ups := e.updates(testLabel)
	a, err := e.sc.Decrypt(e.user, ups, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	// The reference lives here: three full pairings multiplied in GT,
	// then the scheme's own mask.
	b := rohash.XOR(ct.V, e.sc.mask(separateProduct(e, ups, ct), len(ct.V)))
	if !bytes.Equal(a, b) || !bytes.Equal(a, msg) {
		t.Fatal("shared and separate final-exponentiation paths must agree")
	}
}

func TestMissingOneUpdateYieldsGarbage(t *testing.T) {
	// The whole point of §5.3.5: N−1 colluding servers are not enough.
	e := newEnv(t, 3)
	msg := []byte("all three or nothing")
	ct, err := e.sc.Encrypt(nil, e.group, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	ups := e.updates(testLabel)
	// Substitute server 1's update with one for a different label
	// (equivalently: that server has not yet released the right update).
	ups[1] = e.tre.IssueUpdate(e.servers[1], "not yet")
	got, err := e.sc.Decrypt(e.user, ups, ct)
	if !errors.Is(err, core.ErrLabelMismatch) {
		// Labels typically match in a real attack (the adversary would
		// forge the label); emulate that by relabeling.
		ups[1].Label = testLabel
		got, err = e.sc.Decrypt(e.user, ups, ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
	}
	if bytes.Equal(got, msg) {
		t.Fatal("decryption without server 1's genuine update must fail")
	}
}

func TestVerifyUserPublicKey(t *testing.T) {
	e := newEnv(t, 2)
	if !e.sc.VerifyUserPublicKey(e.group, e.user.Pub) {
		t.Fatal("honest combined key must verify")
	}
	bad := e.user.Pub
	bad.Combined = e.sc.Set.B.Add(backend.G1, bad.Combined, e.sc.Set.G)
	if e.sc.VerifyUserPublicKey(e.group, bad) {
		t.Fatal("malformed combined key must be rejected")
	}
	// A key built for a different group must not verify for this one.
	other := newEnv(t, 2)
	if e.sc.VerifyUserPublicKey(e.group, other.user.Pub) {
		t.Fatal("combined key for another group must be rejected")
	}
	if _, err := e.sc.Encrypt(nil, e.group, bad, testLabel, []byte("m")); !errors.Is(err, core.ErrInvalidPublicKey) {
		t.Fatalf("Encrypt with bad key: err=%v, want ErrInvalidPublicKey", err)
	}
}

func TestUserKeyFromScalarReusesIdentity(t *testing.T) {
	// §5.3.5: the sender asks the receiver for a new combined key; the
	// receiver derives it from the same private scalar, and the certified
	// AG stays constant.
	e := newEnv(t, 2)
	regrouped, err := e.sc.UserKeyFromScalar(e.group[:1], e.user.A)
	if err != nil {
		t.Fatalf("UserKeyFromScalar: %v", err)
	}
	if !e.sc.Set.B.Equal(backend.G1, regrouped.Pub.AG, e.user.Pub.AG) {
		t.Fatal("certified AG must not change across server groups")
	}
	if !e.sc.VerifyUserPublicKey(e.group[:1], regrouped.Pub) {
		t.Fatal("re-derived key must verify for the smaller group")
	}
}

func TestDecryptInputValidation(t *testing.T) {
	e := newEnv(t, 2)
	ct, err := e.sc.Encrypt(nil, e.group, e.user.Pub, testLabel, []byte("m"))
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := e.sc.Decrypt(e.user, e.updates(testLabel)[:1], ct); err == nil {
		t.Fatal("update-count mismatch must be rejected")
	}
	mixed := e.updates(testLabel)
	mixed[1] = e.tre.IssueUpdate(e.servers[1], "other")
	if _, err := e.sc.Decrypt(e.user, mixed, ct); !errors.Is(err, core.ErrLabelMismatch) {
		t.Fatalf("mixed labels: err=%v, want ErrLabelMismatch", err)
	}
	if _, err := e.sc.Decrypt(e.user, e.updates(testLabel), nil); !errors.Is(err, core.ErrInvalidCiphertext) {
		t.Fatalf("nil ciphertext: err=%v, want ErrInvalidCiphertext", err)
	}
	if _, err := e.sc.UserKeyGen(nil, nil); err == nil {
		t.Fatal("empty server group must be rejected")
	}
}
