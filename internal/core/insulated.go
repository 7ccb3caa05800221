package core

import (
	"timedrelease/internal/backend"
	"timedrelease/internal/bls"
	"timedrelease/internal/curve"
	"timedrelease/internal/rohash"
)

// EpochKey is the key-insulation credential of §5.3.3: a per-epoch
// decryption key computed on a safe device and handed to a relatively
// insecure one. With it, the insecure device can decrypt every
// ciphertext whose release label is Label — and nothing else: deriving
// another epoch's key from it is CDH-hard, so a compromise stays
// confined to one epoch.
//
// Note on the paper's notation: §5.3.3 writes the epoch key as a·H1(Tᵢ),
// but that value cannot complete a decryption (ê(U, a·H1(T)) =
// ê(G, H1(T))^{ra} lacks the server factor s). The key that makes the
// mechanism work — and matches the text's "computes … when a new key
// update is received" — is a·I_T = a·s·H1(Tᵢ), which yields
// ê(U, a·I_T) = ê(G, H1(T))^{ras} = K exactly. We implement the latter;
// see DESIGN.md substitution S3.
type EpochKey struct {
	Label string
	D     curve.Point // a · s·H1(Label)
}

// DeriveEpochKey computes the epoch key a·I_T from the private scalar
// and the epoch's (verified) key update. Run this on the safe device.
func (sc *Scheme) DeriveEpochKey(upriv *UserKeyPair, upd KeyUpdate) EpochKey {
	return EpochKey{
		Label: upd.Label,
		D:     sc.Set.B.ScalarMult(backend.G2, upriv.A, upd.Point),
	}
}

// DecryptWithEpochKey decrypts a basic ciphertext on the insecure device
// using only the epoch key: K' = ê(U, a·I_T). The private scalar a never
// touches this code path.
func (sc *Scheme) DecryptWithEpochKey(ek EpochKey, ct *Ciphertext) ([]byte, error) {
	if ct == nil || !sc.Set.B.IsOnCurve(backend.G1, ct.U) {
		return nil, ErrInvalidCiphertext
	}
	k := sc.Set.B.Pair(ct.U, ek.D)
	return rohash.XOR(ct.V, sc.maskH2(k, len(ct.V))), nil
}

// DecryptCCAWithEpochKey is the FO-authenticated variant of epoch-key
// decryption.
func (sc *Scheme) DecryptCCAWithEpochKey(spub ServerPublicKey, ek EpochKey, ct *CCACiphertext) ([]byte, error) {
	if ct == nil || len(ct.W) != seedLen || !sc.Set.B.IsOnCurve(backend.G1, ct.U) || ct.U.IsInfinity() {
		return nil, ErrInvalidCiphertext
	}
	k := sc.Set.B.Pair(ct.U, ek.D)
	return sc.foOpen(spub, k, ct)
}

// VerifyEpochKey lets the insecure device sanity-check a received epoch
// key against the user's public key and the server's update:
// ê(G, a·I_T) = ê(aG, I_T).
func (sc *Scheme) VerifyEpochKey(spub ServerPublicKey, upub UserPublicKey, upd KeyUpdate, ek EpochKey) bool {
	// The BLS predicate with a as the signing scalar and I_T as the
	// hashed message.
	return ek.Label == upd.Label &&
		bls.Verify(sc.Set, bls.PublicKey{G: spub.G, SG: upub.AG}, upd.Point, ek.D)
}
