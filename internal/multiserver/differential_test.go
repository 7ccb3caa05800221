package multiserver

// Differential tests pinning the §5.3.5 N-of-N construction against
// the single-server core primitives: for a group of one server over the
// canonical generator, the decapsulated GT must equal the core scheme's
// ê(a·rG, s·H1(T)), and failure modes must surface typed errors.

import (
	"bytes"
	"errors"
	"math/big"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

// constReader yields a repeating byte — a deterministic "rng" so both
// sides of a differential derive the same scalars.
type constReader byte

func (c constReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// A single-server group over the canonical generator is exactly the
// base scheme: the decapsulated GT must equal the directly computed
// pairing ê(a·rG, s·H1(T)) — the K of paper §5.1.
func TestSingleServerGroupMatchesCorePairing(t *testing.T) {
	set := params.MustPreset("Test160")
	sc := NewScheme(set)
	tre := core.NewScheme(set)

	server, err := tre.ServerKeyGen(constReader(0x11))
	if err != nil {
		t.Fatal(err)
	}
	group := ServerGroup{server.Pub}
	user, err := sc.UserKeyFromScalar(group, big.NewInt(0x2345))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sc.Encrypt(constReader(0x33), group, user.Pub, testLabel, []byte("differential"))
	if err != nil {
		t.Fatal(err)
	}
	upd := tre.IssueUpdate(server, testLabel)

	got, err := sc.decapsulate(user, []core.KeyUpdate{upd}, ct)
	if err != nil {
		t.Fatal(err)
	}
	// Core-primitive recomputation, no multiserver code involved:
	// ê(a·U, I_T) with U = rG, I_T = s·H1(T).
	want := set.B.Pair(set.B.ScalarMult(backend.G1, user.A, ct.Us[0]), upd.Point)
	if !set.B.GTEqual(got, want) {
		t.Fatal("multiserver decapsulation differs from the core pairing for a 1-server group")
	}
}

// The shared-final-exponentiation path and the N-independent-pairings
// reference (separateProduct, in multiserver_test.go) must agree on the
// GT itself; the ciphertext-level agreement is covered there too.
func TestDecapsulationPathsAgreeOnGT(t *testing.T) {
	e := newEnv(t, 3)
	ct, err := e.sc.Encrypt(nil, e.group, e.user.Pub, testLabel, []byte("paths"))
	if err != nil {
		t.Fatal(err)
	}
	ups := e.updates(testLabel)
	shared, err := e.sc.decapsulate(e.user, ups, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !e.sc.Set.B.GTEqual(shared, separateProduct(e, ups, ct)) {
		t.Fatal("shared and separate final exponentiation disagree on the GT")
	}
}

// Wrong update cardinality is a typed error (ErrUpdateCount), distinct
// from a malformed ciphertext.
func TestUpdateCountReturnsTypedError(t *testing.T) {
	e := newEnv(t, 3)
	msg := []byte("count")
	ct, err := e.sc.Encrypt(nil, e.group, e.user.Pub, testLabel, msg)
	if err != nil {
		t.Fatal(err)
	}
	ups := e.updates(testLabel)

	if _, err := e.sc.Decrypt(e.user, ups[:2], ct); !errors.Is(err, ErrUpdateCount) {
		t.Fatalf("2 updates for 3 headers: got %v, want ErrUpdateCount", err)
	}
	extra := append(append([]core.KeyUpdate{}, ups...), ups[0])
	if _, err := e.sc.Decrypt(e.user, extra, ct); !errors.Is(err, ErrUpdateCount) {
		t.Fatalf("4 updates for 3 headers: got %v, want ErrUpdateCount", err)
	}
	if _, err := e.sc.Decrypt(e.user, nil, &Ciphertext{}); !errors.Is(err, core.ErrInvalidCiphertext) {
		t.Fatalf("empty ciphertext: got %v, want ErrInvalidCiphertext", err)
	}

	// The full set still decrypts.
	got, err := e.sc.Decrypt(e.user, ups, ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("full decrypt: %q %v", got, err)
	}
}
