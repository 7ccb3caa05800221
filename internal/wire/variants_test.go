package wire_test

import (
	"bytes"
	"errors"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/hibe"
	"timedrelease/internal/idtre"
	"timedrelease/internal/multiserver"
	"timedrelease/internal/params"
	"timedrelease/internal/policylock"
	"timedrelease/internal/wire"
)

// The variant schemes own their encodings (idtre, multiserver,
// policylock and hibe each marshal their own objects) on this
// package's Reader and Append helpers. These tests pin them from
// outside the package, which the variants import.

// fixture is one parameter set with a server and a receiver key.
type fixture struct {
	set    *params.Set
	sc     *core.Scheme
	server *core.ServerKeyPair
	user   *core.UserKeyPair
}

func newFixture(tb testing.TB, preset string) *fixture {
	tb.Helper()
	set := params.MustPreset(preset)
	sc := core.NewScheme(set)
	server, err := sc.ServerKeyGen(nil)
	if err != nil {
		tb.Fatal(err)
	}
	user, err := sc.UserKeyGen(server.Pub, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture{set: set, sc: sc, server: server, user: user}
}

// onBothBackends runs body against a fresh fixture on the paper's Type-1
// setting and on BLS12-381. The multi-server codec stays on Test160:
// its scheme is Type-1 only.
func onBothBackends(t *testing.T, body func(*testing.T, *fixture)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) { body(t, newFixture(t, preset)) })
	}
}

func TestIDCiphertextRoundTrip(t *testing.T) { onBothBackends(t, testIDCiphertextRoundTrip) }

func testIDCiphertextRoundTrip(t *testing.T, e *fixture) {
	id := idtre.NewScheme(e.set)
	const label = "2026-07-05T12:00:00Z"
	msg := []byte("identity wire trip")
	ct, err := id.Encrypt(nil, e.server.Pub, "alice", label, msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := id.UnmarshalCiphertext(id.MarshalCiphertext(ct))
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
	e := newFixture(t, "Test160")
	ms := multiserver.NewScheme(e.set)
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
	enc := ms.MarshalCiphertext(ct)
	back, err := ms.UnmarshalCiphertext(enc)
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
	if _, err := ms.UnmarshalCiphertext(enc[:5]); err == nil {
		t.Fatal("truncated multi ciphertext must fail")
	}
	zeroHeaders := wire.AppendBytes32(wire.AppendU16(nil, 0), []byte("v"))
	if _, err := ms.UnmarshalCiphertext(zeroHeaders); err == nil {
		t.Fatal("zero-header multi ciphertext must fail")
	}
}

func TestPolicyCiphertextRoundTrip(t *testing.T) { onBothBackends(t, testPolicyCiphertextRoundTrip) }

func testPolicyCiphertextRoundTrip(t *testing.T, e *fixture) {
	pl := policylock.NewScheme(e.set)
	policy, err := policylock.ParsePolicy("board ok & audit ok | emergency")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("policy wire trip")
	ct, err := pl.Encrypt(nil, e.server.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := pl.UnmarshalCiphertext(pl.MarshalCiphertext(ct))
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
	bad := pl.MarshalCiphertext(&policylock.Ciphertext{
		Policy:  policy,
		Headers: ct.Headers[:1],
		V:       ct.V,
	})
	if _, err := pl.UnmarshalCiphertext(bad); err == nil {
		t.Fatal("header/clause mismatch must fail")
	}
}

func TestAttestationRoundTrip(t *testing.T) { onBothBackends(t, testAttestationRoundTrip) }

func testAttestationRoundTrip(t *testing.T, e *fixture) {
	pl := policylock.NewScheme(e.set)
	att := pl.Attest(e.server, "condition-x")
	back, err := pl.UnmarshalAttestation(pl.MarshalAttestation(att))
	if err != nil {
		t.Fatal(err)
	}
	if back.Condition != att.Condition || !e.set.B.Equal(backend.G2, back.Point, att.Point) {
		t.Fatal("round trip mismatch")
	}
	if !pl.VerifyAttestation(e.server.Pub, back) {
		t.Fatal("decoded attestation must verify")
	}
}

// TestCrossBackendVariantsRejected pins the typed error contract of the
// core codecs (crossbackend_test.go) for the variant codecs: ID-TRE
// and policy-locked ciphertexts, attestations, HIBE node keys and tree
// ciphertexts decode under the backend that encoded them and fail under
// the other family with ErrBackendMismatch (a symmetric attestation is
// shorter than one BLS G2 point, so that direction surfaces as a plain
// decode error — never as an accepted object). The node key's path is
// four labels deep so that its symmetric encoding outlasts one BLS G2
// point. The multi-server decoder alone refuses an asymmetric set
// outright: its scheme is Type-1 only.
func TestCrossBackendVariantsRejected(t *testing.T) {
	msg := bytes.Repeat([]byte("cross-backend safety "), 4)
	policy, err := policylock.ParsePolicy("board ok & audit ok | emergency")
	if err != nil {
		t.Fatal(err)
	}
	path := []string{"2026", "07", "05", "12"}
	type kit struct {
		id *idtre.Scheme
		pl *policylock.Scheme
		h  *hibe.Scheme
	}
	type blobs struct{ id, policy, att, node, tree []byte }
	kits := map[string]kit{}
	mk := func(preset string) blobs {
		e := newFixture(t, preset)
		k := kit{idtre.NewScheme(e.set), policylock.NewScheme(e.set), hibe.NewScheme(e.set, "cross")}
		kits[preset] = k
		idCT, err := k.id.Encrypt(nil, e.server.Pub, "alice", "label-x", msg)
		if err != nil {
			t.Fatal(err)
		}
		plCT, err := k.pl.Encrypt(nil, e.server.Pub, e.user.Pub, policy, msg)
		if err != nil {
			t.Fatal(err)
		}
		root, err := k.h.RootKeyGen(nil)
		if err != nil {
			t.Fatal(err)
		}
		node, err := k.h.NodeFor(root, path)
		if err != nil {
			t.Fatal(err)
		}
		treeCT, err := k.h.Encrypt(nil, root.Pub, path, msg)
		if err != nil {
			t.Fatal(err)
		}
		return blobs{
			id:     k.id.MarshalCiphertext(idCT),
			policy: k.pl.MarshalCiphertext(plCT),
			att:    k.pl.MarshalAttestation(k.pl.Attest(e.server, "emergency")),
			node:   k.h.MarshalNodeKey(node),
			tree:   k.h.MarshalCiphertext(treeCT),
		}
	}
	decode := func(k kit, b blobs) map[string]error {
		_, id := k.id.UnmarshalCiphertext(b.id)
		_, pol := k.pl.UnmarshalCiphertext(b.policy)
		_, att := k.pl.UnmarshalAttestation(b.att)
		_, node := k.h.UnmarshalNodeKey(b.node)
		_, tree := k.h.UnmarshalCiphertext(b.tree)
		return map[string]error{"ID ciphertext": id, "policy ciphertext": pol, "attestation": att,
			"HIBE node key": node, "tree ciphertext": tree}
	}
	const sym, asym = "Test160", params.PresetBLS12381
	blob := map[string]blobs{sym: mk(sym), asym: mk(asym)}

	for _, preset := range []string{sym, asym} {
		for what, err := range decode(kits[preset], blob[preset]) {
			if err != nil {
				t.Fatalf("%s %s self-decode: %v", preset, what, err)
			}
		}
	}
	for what, err := range decode(kits[sym], blob[asym]) {
		if !errors.Is(err, wire.ErrBackendMismatch) {
			t.Errorf("BLS %s under the symmetric set: err=%v, want ErrBackendMismatch", what, err)
		}
	}
	for what, err := range decode(kits[asym], blob[sym]) {
		if what == "attestation" {
			if err == nil {
				t.Error("symmetric attestation must not decode under the BLS set")
			}
		} else if !errors.Is(err, wire.ErrBackendMismatch) {
			t.Errorf("symmetric %s under the BLS set: err=%v, want ErrBackendMismatch", what, err)
		}
	}

	junk := bytes.Repeat([]byte{0x5a}, 64)
	if _, err := multiserver.NewScheme(params.MustPreset(asym)).UnmarshalCiphertext(junk); !errors.Is(err, backend.ErrSymmetricOnly) {
		t.Fatalf("multiserver UnmarshalCiphertext: err=%v, want ErrSymmetricOnly", err)
	}
}

func FuzzUnmarshalPolicyCiphertext(f *testing.F) {
	pl := policylock.NewScheme(params.MustPreset("Test160"))
	f.Add([]byte{0, 1, 'a', 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := pl.UnmarshalCiphertext(data)
		if err != nil {
			return
		}
		if got := pl.MarshalCiphertext(ct); string(got) != string(data) {
			t.Fatalf("decode/encode not canonical")
		}
	})
}
