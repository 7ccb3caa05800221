package policylock

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

type env struct {
	sc      *Scheme
	tre     *core.Scheme
	witness *core.ServerKeyPair
	user    *core.UserKeyPair
}

// onBothBackends runs body against a fresh fixture on the paper's Type-1
// setting and on BLS12-381: the scheme is the same code on both.
func onBothBackends(t *testing.T, body func(*testing.T, *env)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) { body(t, newEnv(t, preset)) })
	}
}

func newEnv(t *testing.T, preset string) *env {
	t.Helper()
	set := params.MustPreset(preset)
	sc := NewScheme(set)
	tre := core.NewScheme(set)
	witness, err := tre.ServerKeyGen(nil)
	if err != nil {
		t.Fatalf("ServerKeyGen: %v", err)
	}
	user, err := tre.UserKeyGen(witness.Pub, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	return &env{sc: sc, tre: tre, witness: witness, user: user}
}

func (e *env) attest(conds ...string) []Attestation {
	atts := make([]Attestation, len(conds))
	for i, c := range conds {
		atts[i] = e.sc.Attest(e.witness, c)
	}
	return atts
}

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		expr    string
		want    string
		wantErr bool
	}{
		{expr: "emergency", want: "emergency"},
		{expr: "a & b", want: "a & b"},
		{expr: "a & b | c", want: "a & b | c"},
		{expr: "  a  &  b  |  c  ", want: "a & b | c"},
		{expr: "a &  | c", wantErr: true},
		{expr: "", wantErr: true},
		{expr: "|", wantErr: true},
	}
	for _, tc := range tests {
		p, err := ParsePolicy(tc.expr)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePolicy(%q): want error, got %q", tc.expr, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.expr, err)
			continue
		}
		if p.String() != tc.want {
			t.Errorf("ParsePolicy(%q) = %q, want %q", tc.expr, p, tc.want)
		}
	}
}

func TestSingleConditionRoundTrip(t *testing.T) { onBothBackends(t, testSingleConditionRoundTrip) }

func testSingleConditionRoundTrip(t *testing.T, e *env) {
	policy, err := ParsePolicy("task X completed")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	msg := []byte("released on completion")
	ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := e.sc.Decrypt(e.user, e.attest("task X completed"), ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestANDRequiresAllConditions(t *testing.T) { onBothBackends(t, testANDRequiresAllConditions) }

func testANDRequiresAllConditions(t *testing.T, e *env) {
	policy, err := ParsePolicy("board approved & audit passed")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	msg := []byte("both or nothing")
	ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	if _, err := e.sc.Decrypt(e.user, e.attest("board approved"), ct); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("one of two conditions: err=%v, want ErrPolicyUnsatisfied", err)
	}
	got, err := e.sc.Decrypt(e.user, e.attest("board approved", "audit passed"), ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch with both attestations")
	}
}

func TestORAnyClauseSuffices(t *testing.T) { onBothBackends(t, testORAnyClauseSuffices) }

func testORAnyClauseSuffices(t *testing.T, e *env) {
	policy, err := ParsePolicy("emergency | ceo approves & cfo approves")
	if err != nil {
		t.Fatalf("ParsePolicy: %v", err)
	}
	msg := []byte("break glass")
	ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	// Clause 1 alone.
	got, err := e.sc.Decrypt(e.user, e.attest("emergency"), ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("emergency clause: got %q err %v", got, err)
	}
	// Clause 2 alone.
	got, err = e.sc.Decrypt(e.user, e.attest("ceo approves", "cfo approves"), ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("approval clause: got %q err %v", got, err)
	}
	// Partial clause 2 only.
	if _, err := e.sc.Decrypt(e.user, e.attest("ceo approves"), ct); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("partial clause: err=%v, want ErrPolicyUnsatisfied", err)
	}
}

func TestReceiverKeyStillRequired(t *testing.T) { onBothBackends(t, testReceiverKeyStillRequired) }

func testReceiverKeyStillRequired(t *testing.T, e *env) {
	// The "extra lock layer": attestations alone do not open the message
	// — the designated receiver's private key is also needed.
	policy, _ := ParsePolicy("cond")
	msg := []byte("receiver-bound")
	ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	other, err := e.tre.UserKeyGen(e.witness.Pub, nil)
	if err != nil {
		t.Fatalf("UserKeyGen: %v", err)
	}
	got, err := e.sc.Decrypt(other, e.attest("cond"), ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("another user's key must not open the lock")
	}
}

func TestForgedAttestationRejectedAndUseless(t *testing.T) {
	onBothBackends(t, testForgedAttestationRejectedAndUseless)
}

func testForgedAttestationRejectedAndUseless(t *testing.T, e *env) {
	// Forged attestation: random point.
	forged := Attestation{Condition: "cond", Point: e.sc.Set.G2}
	if e.sc.VerifyAttestation(e.witness.Pub, forged) {
		t.Fatal("forged attestation must not verify")
	}
	genuine := e.sc.Attest(e.witness, "cond")
	if !e.sc.VerifyAttestation(e.witness.Pub, genuine) {
		t.Fatal("genuine attestation must verify")
	}
	// Attestation for the wrong condition doesn't decrypt.
	policy, _ := ParsePolicy("cond")
	msg := []byte("relabelling must not open this")
	ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	wrong := e.sc.Attest(e.witness, "other cond")
	wrong.Condition = "cond" // adversarial relabeling
	got, err := e.sc.Decrypt(e.user, []Attestation{wrong}, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("relabelled attestation must not decrypt")
	}
}

func TestTimeUpdateCannotServeAsAttestation(t *testing.T) {
	onBothBackends(t, testTimeUpdateCannotServeAsAttestation)
}

func testTimeUpdateCannotServeAsAttestation(t *testing.T, e *env) {
	// Domain separation: a time-bound key update for label L must be
	// useless for a policy condition with the same string L.
	policy, _ := ParsePolicy("2026-07-05T12:00:00Z")
	msg := []byte("needs a policy attestation, not a time update")
	ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	upd := e.tre.IssueUpdate(e.witness, "2026-07-05T12:00:00Z")
	crossover := Attestation{Condition: "2026-07-05T12:00:00Z", Point: upd.Point}
	got, err := e.sc.Decrypt(e.user, []Attestation{crossover}, ct)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if bytes.Equal(got, msg) {
		t.Fatal("a time update must not satisfy a policy condition")
	}
}

func TestDuplicateConditionInClause(t *testing.T) { onBothBackends(t, testDuplicateConditionInClause) }

func testDuplicateConditionInClause(t *testing.T, e *env) {
	policy := Policy{Clauses: [][]string{{"x", "x", "y"}}}
	msg := []byte("dedup")
	ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatalf("Encrypt: %v", err)
	}
	got, err := e.sc.Decrypt(e.user, e.attest("x", "y"), ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("duplicate conditions must be deduplicated: got %q err %v", got, err)
	}
}

func TestSatisfiedClauseAndConditions(t *testing.T) {
	p, _ := ParsePolicy("a & b | c")
	if got := p.SatisfiedClause([]string{"c"}); got != 1 {
		t.Fatalf("SatisfiedClause(c) = %d, want 1", got)
	}
	if got := p.SatisfiedClause([]string{"a"}); got != -1 {
		t.Fatalf("SatisfiedClause(a) = %d, want -1", got)
	}
	if got := p.SatisfiedClause([]string{"b", "a"}); got != 0 {
		t.Fatalf("SatisfiedClause(a,b) = %d, want 0", got)
	}
	conds := p.Conditions()
	want := []string{"a", "b", "c"}
	if len(conds) != len(want) {
		t.Fatalf("Conditions() = %v", conds)
	}
	for i := range want {
		if conds[i] != want[i] {
			t.Fatalf("Conditions() = %v, want %v", conds, want)
		}
	}
}

func TestThresholdPolicy(t *testing.T) {
	conds := []string{"a", "b", "c", "d"}
	p, err := Threshold(2, conds)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clauses) != 6 { // C(4,2)
		t.Fatalf("clause count %d, want 6", len(p.Clauses))
	}
	// Any 2 conditions satisfy; any 1 does not.
	if p.SatisfiedClause([]string{"b", "d"}) < 0 {
		t.Fatal("2 of 4 must satisfy")
	}
	if p.SatisfiedClause([]string{"c"}) >= 0 {
		t.Fatal("1 of 4 must not satisfy")
	}
	// End-to-end.
	onBothBackends(t, func(t *testing.T, e *env) {
		msg := []byte("any two approvals")
		ct, err := e.sc.Encrypt(nil, e.witness.Pub, e.user.Pub, p, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.sc.Decrypt(e.user, e.attest("d", "a"), ct)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("2-of-4 decrypt: %q %v", got, err)
		}
		if _, err := e.sc.Decrypt(e.user, e.attest("d"), ct); !errors.Is(err, ErrPolicyUnsatisfied) {
			t.Fatalf("1-of-4: err=%v", err)
		}
	})
	// Validation.
	if _, err := Threshold(0, conds); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := Threshold(5, conds); err == nil {
		t.Fatal("k>n must fail")
	}
	big := make([]string, 14)
	for i := range big {
		big[i] = fmt.Sprintf("c%d", i)
	}
	if _, err := Threshold(7, big); err == nil {
		t.Fatal("C(14,7)=3432 clauses must be refused")
	}
}

func TestPolicyCCAROundTripAndTamper(t *testing.T) {
	onBothBackends(t, testPolicyCCAROundTripAndTamper)
}

func testPolicyCCAROundTripAndTamper(t *testing.T, e *env) {
	policy, err := ParsePolicy("a & b | c")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("integrity-protected policy lock")
	ct, err := e.sc.EncryptCCA(nil, e.witness.Pub, e.user.Pub, policy, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Opens via either clause.
	got, err := e.sc.DecryptCCA(e.witness.Pub, e.user, e.attest("c"), ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("clause c: %q %v", got, err)
	}
	got, err = e.sc.DecryptCCA(e.witness.Pub, e.user, e.attest("a", "b"), ct)
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("clause ab: %q %v", got, err)
	}
	// Unsatisfied.
	if _, err := e.sc.DecryptCCA(e.witness.Pub, e.user, e.attest("a"), ct); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("partial: err=%v", err)
	}

	// Tampering: payload flip.
	mutate := func(f func(*CCACiphertext)) error {
		c2, err := e.sc.EncryptCCA(nil, e.witness.Pub, e.user.Pub, policy, msg)
		if err != nil {
			t.Fatal(err)
		}
		f(c2)
		_, err = e.sc.DecryptCCA(e.witness.Pub, e.user, e.attest("c"), c2)
		return err
	}
	if err := mutate(func(c *CCACiphertext) { c.V[0] ^= 1 }); !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("payload flip: err=%v", err)
	}
	if err := mutate(func(c *CCACiphertext) { c.Headers[1].Wrap[0] ^= 1 }); !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("wrap flip: err=%v", err)
	}
	if err := mutate(func(c *CCACiphertext) { c.Headers[0].U = e.sc.Set.G }); !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("header point swap: err=%v", err)
	}
	if err := mutate(func(c *CCACiphertext) {
		// Swap the two clause headers: classic mix-and-match.
		c.Headers[0], c.Headers[1] = c.Headers[1], c.Headers[0]
	}); !errors.Is(err, core.ErrAuthFailed) {
		t.Fatalf("header swap: err=%v", err)
	}
	// Policy rewrite (weaken "a & b" to "a") must be caught.
	if err := mutate(func(c *CCACiphertext) { c.Policy.Clauses[0] = []string{"a"} }); err == nil {
		t.Fatal("policy rewrite must be rejected")
	}
}
