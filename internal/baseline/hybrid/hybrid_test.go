package hybrid

import (
	"bytes"
	"testing"

	"timedrelease/internal/backend"
	"timedrelease/internal/baseline/bfibe"
	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

const label = "2026-07-05T12:00:00Z"

type env struct {
	sc       *Scheme
	ibe      *bfibe.Scheme
	master   *bfibe.MasterKey
	receiver *ReceiverKey
}

// onBothBackends runs body against a fresh fixture on the paper's Type-1
// setting and on BLS12-381.
func onBothBackends(t *testing.T, body func(*testing.T, *env)) {
	for _, preset := range []string{"Test160", params.PresetBLS12381} {
		t.Run(preset, func(t *testing.T) { body(t, setup(t, preset)) })
	}
}

func setup(t *testing.T, preset string) *env {
	t.Helper()
	set := params.MustPreset(preset)
	sc := NewScheme(set)
	ibe := bfibe.NewScheme(set)
	mk, err := ibe.MasterKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := sc.ReceiverKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &env{sc: sc, ibe: ibe, master: mk, receiver: rk}
}

func TestRoundTrip(t *testing.T) { onBothBackends(t, testRoundTrip) }

func testRoundTrip(t *testing.T, e *env) {
	msg := []byte("the hybrid strawman works, just bigger and slower")
	ct, err := e.sc.Encrypt(nil, e.master.Pub, e.receiver.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}
	labelKey := e.ibe.Extract(e.master, label) // what the time server releases at T
	got, err := e.sc.Decrypt(e.receiver, labelKey, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestNeedsBothKeys(t *testing.T) { onBothBackends(t, testNeedsBothKeys) }

func testNeedsBothKeys(t *testing.T, e *env) {
	msg := []byte("both sub-keys required")
	ct, err := e.sc.Encrypt(nil, e.master.Pub, e.receiver.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Right label key, wrong receiver key.
	otherRk, err := e.sc.ReceiverKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	labelKey := e.ibe.Extract(e.master, label)
	if got, _ := e.sc.Decrypt(otherRk, labelKey, ct); bytes.Equal(got, msg) {
		t.Fatal("wrong receiver key must not decrypt")
	}
	// Right receiver key, wrong (earlier) label key.
	earlyKey := e.ibe.Extract(e.master, "2026-07-05T11:00:00Z")
	if got, _ := e.sc.Decrypt(e.receiver, earlyKey, ct); bytes.Equal(got, msg) {
		t.Fatal("wrong label key must not decrypt")
	}
}

func TestCiphertextSizeVersusTRE(t *testing.T) { onBothBackends(t, testCiphertextSizeVersusTRE) }

func testCiphertextSizeVersusTRE(t *testing.T, e *env) {
	// The quantitative heart of E1: the hybrid ciphertext carries two
	// group elements and two wrapped sub-keys; TRE carries one group
	// element. For short messages the overhead ratio approaches 2x
	// ("50% reduction in most cases").
	set := e.sc.Set
	const msgLen = 32

	hybridSize := e.sc.Size(msgLen)

	tre := core.NewScheme(set)
	server, err := tre.ServerKeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	user, err := tre.UserKeyGen(server.Pub, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tre.Encrypt(nil, server.Pub, user.Pub, label, make([]byte, msgLen))
	if err != nil {
		t.Fatal(err)
	}
	treSize := set.B.PointLen(backend.G1) + len(ct.V)

	if hybridSize <= treSize {
		t.Fatalf("hybrid (%dB) must be larger than TRE (%dB)", hybridSize, treSize)
	}
	ratio := float64(treSize) / float64(hybridSize)
	if ratio > 0.75 {
		t.Fatalf("TRE/hybrid size ratio %.2f — expected a substantial reduction", ratio)
	}
	t.Logf("msg=%dB: TRE=%dB hybrid=%dB (TRE is %.0f%% of hybrid)", msgLen, treSize, hybridSize, 100*ratio)
}

func TestSizeAccounting(t *testing.T) { onBothBackends(t, testSizeAccounting) }

func testSizeAccounting(t *testing.T, e *env) {
	msg := make([]byte, 100)
	ct, err := e.sc.Encrypt(nil, e.master.Pub, e.receiver.Pub, label, msg)
	if err != nil {
		t.Fatal(err)
	}
	got := 2*e.sc.Set.B.PointLen(backend.G1) + len(ct.W1) + len(ct.W2) + len(ct.V)
	if got != e.sc.Size(len(msg)) {
		t.Fatalf("Size() = %d, actual = %d", e.sc.Size(len(msg)), got)
	}
}

func TestMalformedCiphertext(t *testing.T) { onBothBackends(t, testMalformedCiphertext) }

func testMalformedCiphertext(t *testing.T, e *env) {
	labelKey := e.ibe.Extract(e.master, label)
	if _, err := e.sc.Decrypt(e.receiver, labelKey, nil); err == nil {
		t.Fatal("nil ciphertext must be rejected")
	}
	ct, err := e.sc.Encrypt(nil, e.master.Pub, e.receiver.Pub, label, []byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	ct.W1 = ct.W1[:5]
	if _, err := e.sc.Decrypt(e.receiver, labelKey, ct); err == nil {
		t.Fatal("short W1 must be rejected")
	}
}
