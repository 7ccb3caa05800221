package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"timedrelease/internal/params"
)

// crossEnv holds one scheme per backend family so tests can encode
// under one and decode under the other.
type crossEnv struct {
	sym, asym *env
}

func newCrossEnv(t *testing.T) *crossEnv {
	t.Helper()
	return &crossEnv{sym: newEnvOn(t, "Test160"), asym: newEnvOn(t, params.PresetBLS12381)}
}

// ccaBlob encrypts a message long enough that the foreign codec's
// first point read lands entirely inside the blob (a BLS G1 point is
// 48 bytes, more than twice a Test160 point), so the decoder reaches
// the compression-tag check instead of bailing out as truncated.
func ccaBlob(t *testing.T, e *env) []byte {
	t.Helper()
	msg := bytes.Repeat([]byte("cross-backend safety "), 4)
	ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, "label-x", msg)
	if err != nil {
		t.Fatal(err)
	}
	return e.codec.MarshalCCACiphertext(ct)
}

// TestCrossBackendCiphertextRejected pins the typed error contract: a
// ciphertext encoded under one backend family, decoded under the
// other, fails with ErrBackendMismatch in both directions — not a
// generic parse error, so callers (and their error messages) can tell
// "wrong backend" apart from corruption.
func TestCrossBackendCiphertextRejected(t *testing.T) {
	ce := newCrossEnv(t)

	symBlob := ccaBlob(t, ce.sym)
	if _, err := ce.asym.codec.UnmarshalCCACiphertext(symBlob); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("symmetric ciphertext under BLS codec: err=%v, want ErrBackendMismatch", err)
	}

	asymBlob := ccaBlob(t, ce.asym)
	if _, err := ce.sym.codec.UnmarshalCCACiphertext(asymBlob); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("BLS ciphertext under symmetric codec: err=%v, want ErrBackendMismatch", err)
	}

	// Sanity: each blob still decodes fine under its own codec.
	if _, err := ce.sym.codec.UnmarshalCCACiphertext(symBlob); err != nil {
		t.Fatalf("symmetric self-decode: %v", err)
	}
	if _, err := ce.asym.codec.UnmarshalCCACiphertext(asymBlob); err != nil {
		t.Fatalf("BLS self-decode: %v", err)
	}
}

// TestCrossBackendServerKeyRejected checks the server public key path.
// The BLS encoding (192 bytes) is long enough for the symmetric
// codec's point reads, so the tag check fires; the reverse direction
// is shorter than one BLS point and surfaces as a decode error too
// (truncation), never as a silently-accepted key.
func TestCrossBackendServerKeyRejected(t *testing.T) {
	ce := newCrossEnv(t)

	asymKey := ce.asym.codec.MarshalServerPublicKey(ce.asym.server.Pub)
	if _, err := ce.sym.codec.UnmarshalServerPublicKey(asymKey); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("BLS server key under symmetric codec: err=%v, want ErrBackendMismatch", err)
	}

	symKey := ce.sym.codec.MarshalServerPublicKey(ce.sym.server.Pub)
	if _, err := ce.asym.codec.UnmarshalServerPublicKey(symKey); err == nil {
		t.Fatal("symmetric server key must not decode under the BLS codec")
	}
}

// TestCrossBackendKeyUpdateRejected checks the key-update path with a
// label long enough that the foreign point read stays in-bounds.
func TestCrossBackendKeyUpdateRejected(t *testing.T) {
	ce := newCrossEnv(t)

	upd := ce.asym.sc.IssueUpdate(ce.asym.server, "round-000042")
	blob := ce.asym.codec.MarshalKeyUpdate(upd)
	if _, err := ce.sym.codec.UnmarshalKeyUpdate(blob); !errors.Is(err, ErrBackendMismatch) {
		t.Fatalf("BLS update under symmetric codec: err=%v, want ErrBackendMismatch", err)
	}

	symUpd := ce.sym.sc.IssueUpdate(ce.sym.server, "round-000042")
	if _, err := ce.asym.codec.UnmarshalKeyUpdate(ce.sym.codec.MarshalKeyUpdate(symUpd)); err == nil {
		t.Fatal("symmetric update must not decode under the BLS codec")
	}
}

// TestCrossBackendArmoredRejected pins the armored (TREARM01) path: an
// armored round ciphertext written under the symmetric set fails under
// a BLS codec with ErrParamsMismatch — the parameter fingerprint
// diverges because the asymmetric set's Marshal carries a backend=
// line — and vice versa.
func TestCrossBackendArmoredRejected(t *testing.T) {
	ce := newCrossEnv(t)
	genesis := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	mkArmored := func(e *env) []byte {
		ct, err := e.sc.EncryptCCA(nil, e.server.Pub, e.user.Pub, "round-000007", []byte("sealed"))
		if err != nil {
			t.Fatal(err)
		}
		return e.codec.EncodeArmored(Armored{
			Round:    7,
			Period:   time.Minute,
			Genesis:  genesis,
			Envelope: e.codec.SealCCA("round-000007", ct),
		})
	}

	symFile := mkArmored(ce.sym)
	if _, err := ce.asym.codec.DecodeArmored(symFile); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("symmetric armored file under BLS codec: err=%v, want ErrParamsMismatch", err)
	}
	asymFile := mkArmored(ce.asym)
	if _, err := ce.sym.codec.DecodeArmored(asymFile); !errors.Is(err, ErrParamsMismatch) {
		t.Fatalf("BLS armored file under symmetric codec: err=%v, want ErrParamsMismatch", err)
	}

	// Self-decode still works and the fingerprints really differ.
	if _, err := ce.sym.codec.DecodeArmored(symFile); err != nil {
		t.Fatalf("symmetric armored self-decode: %v", err)
	}
	if _, err := ce.asym.codec.DecodeArmored(asymFile); err != nil {
		t.Fatalf("BLS armored self-decode: %v", err)
	}
	if ce.sym.codec.Fingerprint() == ce.asym.codec.Fingerprint() {
		t.Fatal("symmetric and BLS codecs share a parameter fingerprint")
	}
}
