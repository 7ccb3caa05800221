package bls

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"slices"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/parallel"
	"timedrelease/internal/params"
)

// batchExponentBits sizes the random blinding exponents of batch
// verification; a forged signature slips through with probability
// ~2^-batchExponentBits per batch.
const batchExponentBits = 128

// VerifyBatch checks many same-key signatures with ONE pairing equation
// instead of one per signature:
//
//	ê(G, Σ eᵢ·σᵢ) = ê(sG, Σ eᵢ·H1(mᵢ))
//
// for fresh random 128-bit blinders eᵢ. If every σᵢ = s·H1(mᵢ) the
// equation holds; if any signature is wrong, the random combination
// detects it except with probability ~2⁻¹²⁸. This is the fast path for a
// receiver catching up on many archived key updates at once: 2 Miller
// loops total instead of 2 per update (measured in E6).
//
// The per-signature work (subgroup check, message hash, two blinded
// scalar multiplications) runs across a GOMAXPROCS-bounded worker pool;
// the sums are then folded in index order, so the result is identical to
// the sequential computation.
//
// The fixed pairing arguments sit in the prepared key. A false batch
// tells you *something* failed but not what; fall back to per-signature
// VerifyPrepared to locate offenders.
func VerifyBatch(set *params.Set, pk backend.PreparedKey, dst string, msgs [][]byte, sigs []curve.Point, rng io.Reader) (bool, error) {
	return verifyBatch(set, pk, len(msgs), func(i int) curve.Point { return set.B.HashToG2(dst, msgs[i]) }, sigs, rng)
}

// VerifyBatchHashed is VerifyBatch for a caller that already holds
// hashes[i] = H1(mᵢ) as points of G2 it computed itself (the token
// client keeps them from blinding): the same checks and the same
// equation, minus the n hashes.
func VerifyBatchHashed(set *params.Set, pk backend.PreparedKey, hashes, sigs []curve.Point, rng io.Reader) (bool, error) {
	return verifyBatch(set, pk, len(hashes), func(i int) curve.Point { return hashes[i] }, sigs, rng)
}

// verifyBatch is the one batch-verification body. hash(i) runs inside
// the worker pool, on the same pass as the blinded multiplications.
func verifyBatch(set *params.Set, pk backend.PreparedKey, n int, hash func(i int) curve.Point, sigs []curve.Point, rng io.Reader) (bool, error) {
	if n != len(sigs) {
		return false, fmt.Errorf("bls: %d messages for %d signatures", n, len(sigs))
	}
	if n == 0 {
		return true, nil
	}
	if rng == nil {
		rng = rand.Reader
	}
	// Draw all blinders first, sequentially: the rng may be a
	// deterministic test reader, and parallel sampling would make the
	// blinder assignment schedule-dependent.
	limit := new(big.Int).Lsh(big.NewInt(1), batchExponentBits)
	blinders := make([]*big.Int, n)
	for i := range blinders {
		e, err := rand.Int(rng, limit)
		if err != nil {
			return false, fmt.Errorf("bls: sampling batch blinder: %w", err)
		}
		blinders[i] = e.Add(e, big.NewInt(1)) // e ∈ [1, 2^128]
	}

	blindedSigs := make([]curve.Point, n)
	blindedHashes := make([]curve.Point, n)
	bad := make([]bool, n)
	parallel.For(n, func(i int) {
		if !validSig(set, sigs[i]) {
			bad[i] = true
			return
		}
		blindedSigs[i] = set.B.ScalarMult(backend.G2, blinders[i], sigs[i])
		blindedHashes[i] = set.B.ScalarMult(backend.G2, blinders[i], hash(i))
	})

	if slices.Contains(bad, true) {
		return false, nil
	}
	inf := set.B.Infinity(backend.G2)
	return pk.PairCheck(AggregateInto(set, inf, blindedHashes...), AggregateInto(set, inf, blindedSigs...)), nil
}
