package wire

import (
	"bytes"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/idtre"
	"timedrelease/internal/multiserver"
	"timedrelease/internal/params"
	"timedrelease/internal/policylock"
)

// onBothBackends runs body against a fresh fixture on the paper's Type-1
// setting and on BLS12-381. The multi-server codec stays on Test160:
// its scheme is Type-1 only.
func onBothBackends(t *testing.T, body func(*testing.T, *env)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) { body(t, newEnvOn(t, preset)) })
	}
}

func TestIDCiphertextRoundTrip(t *testing.T) { onBothBackends(t, testIDCiphertextRoundTrip) }

func testIDCiphertextRoundTrip(t *testing.T, e *env) {
	id := idtre.NewScheme(e.codec.Set)
	const label = "2026-07-05T12:00:00Z"
	msg := []byte("identity wire trip")
	ct, err := id.Encrypt(nil, e.server.Pub, "alice", label, msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := e.codec.UnmarshalIDCiphertext(e.codec.MarshalIDCiphertext(ct))
	if err != nil {
		t.Fatal(err)
	}
	priv := id.ExtractUserKey(e.server, "alice")
	got, err := id.Decrypt(priv, e.sc.IssueUpdate(e.server, label), back)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt after round trip: %q %v", got, err)
	}
}

func TestMultiCiphertextRoundTrip(t *testing.T) {
	e := newEnv(t)
	ms := multiserver.NewScheme(e.codec.Set)
	const label = "2026-07-05T12:00:00Z"

	server2, err := e.sc.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	group := multiserver.ServerGroup{e.server.Pub, server2.Pub}
	user, err := ms.UserKeyGen(group, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("multi wire trip")
	ct, err := ms.Encrypt(nil, group, user.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}
	enc := e.codec.MarshalMultiCiphertext(ct)
	back, err := e.codec.UnmarshalMultiCiphertext(enc)
	if err != nil {
		t.Fatal(err)
	}
	updates := []core.KeyUpdate{
		e.sc.IssueUpdate(e.server, label),
		e.sc.IssueUpdate(server2, label),
	}
	got, err := ms.Decrypt(user, updates, back)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt after round trip: %q %v", got, err)
	}

	// Malformed inputs.
	if _, err := e.codec.UnmarshalMultiCiphertext(enc[:5]); err == nil {
		t.Fatal("truncated multi ciphertext must fail")
	}
	zeroHeaders := appendBytes32(appendU16(nil, 0), []byte("v"))
	if _, err := e.codec.UnmarshalMultiCiphertext(zeroHeaders); err == nil {
		t.Fatal("zero-header multi ciphertext must fail")
	}
}

func TestPolicyCiphertextRoundTrip(t *testing.T) { onBothBackends(t, testPolicyCiphertextRoundTrip) }

func testPolicyCiphertextRoundTrip(t *testing.T, e *env) {
	pl := policylock.NewScheme(e.codec.Set)
	policy, err := policylock.ParsePolicy("board ok & audit ok | emergency")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("policy wire trip")
	ct, err := pl.Encrypt(nil, e.server.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatal(err)
	}
	enc := e.codec.MarshalPolicyCiphertext(ct)
	back, err := e.codec.UnmarshalPolicyCiphertext(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy.String() != policy.String() {
		t.Fatalf("policy text changed: %q", back.Policy)
	}
	atts := []policylock.Attestation{pl.Attest(e.server, "emergency")}
	got, err := pl.Decrypt(e.user, atts, back)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decrypt after round trip: %q %v", got, err)
	}

	// Header/clause count mismatch must be rejected.
	bad := e.codec.MarshalPolicyCiphertext(&policylock.Ciphertext{
		Policy:  policy,
		Headers: ct.Headers[:1],
		V:       ct.V,
	})
	if _, err := e.codec.UnmarshalPolicyCiphertext(bad); err == nil {
		t.Fatal("header/clause mismatch must fail")
	}
}

func TestAttestationRoundTrip(t *testing.T) { onBothBackends(t, testAttestationRoundTrip) }

func testAttestationRoundTrip(t *testing.T, e *env) {
	pl := policylock.NewScheme(e.codec.Set)
	att := pl.Attest(e.server, "condition-x")
	back, err := e.codec.UnmarshalAttestation(e.codec.MarshalAttestation(att))
	if err != nil {
		t.Fatal(err)
	}
	if back.Condition != att.Condition || !e.codec.Set.B.Equal(backend.G2, back.Point, att.Point) {
		t.Fatal("round trip mismatch")
	}
	if !pl.VerifyAttestation(e.server.Pub, back) {
		t.Fatal("decoded attestation must verify")
	}
}
