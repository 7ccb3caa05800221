// Package tre is the public API of this repository: a complete
// implementation of Chan–Blake "Scalable, Server-Passive, User-Anonymous
// Timed Release Cryptography" (ICDCS 2005).
//
// It re-exports the core TRE scheme and every companion facility —
// parameters, the passive time server and verifying client, threshold
// servers, beacon rounds, tokens and wire encodings. The paper's
// variant schemes (identity-based TRE, policy locks, multi-server
// encryption, the missing-update-resilient time tree) are receiver-side
// constructions over the same update and live in package tre/variants,
// outside the serving binaries. The implementations live in internal/
// packages, one per subsystem; see DESIGN.md for the map.
//
// # Quickstart
//
//	set := tre.MustPreset("SS512")
//	scheme := tre.NewScheme(set)
//
//	server, _ := scheme.ServerKeyGen(nil)     // the time server, once
//	alice, _ := scheme.UserKeyGen(server.Pub, nil)
//
//	// Sender: no interaction with the server.
//	ct, _ := scheme.EncryptCCA(nil, server.Pub, alice.Pub,
//	    "2027-01-01T00:00:00Z", []byte("happy new year"))
//
//	// Time passes; the server publishes one update for everyone.
//	upd := scheme.IssueUpdate(server, "2027-01-01T00:00:00Z")
//
//	// Receiver: private key + public update.
//	msg, _ := scheme.DecryptCCA(server.Pub, alice, upd, ct)
//
// Security rests on the Bilinear Diffie-Hellman assumption in the
// random-oracle model. Two pairing backends are available: the paper's
// supersingular curve with a Type-1 Tate pairing (presets Test160,
// SS512, SS1024, SS1536) and a Type-3 BLS12-381 port with the optimal
// ate pairing (preset "BLS12-381", or ResolvePreset with backend
// "bls12381") — stronger and faster, but without the inherently
// symmetric variant schemes; docs/BACKENDS.md has the decision table.
// The implementation is NOT constant-time; see README.md for the
// threat model.
package tre

import (
	"fmt"
	"io"

	"timedrelease/internal/core"
	"timedrelease/internal/params"
)

// Core scheme types (paper §5.1, §5.3).
type (
	// Params is a validated parameter set: the primes (p, q), the curve,
	// the pairing and the canonical generator.
	Params = params.Set
	// Scheme exposes the TRE algorithms over one parameter set.
	Scheme = core.Scheme
	// ServerKeyPair is the time server's key material.
	ServerKeyPair = core.ServerKeyPair
	// ServerPublicKey is PK_S = (G, sG).
	ServerPublicKey = core.ServerPublicKey
	// UserKeyPair is a receiver's key material.
	UserKeyPair = core.UserKeyPair
	// UserPublicKey is PK_U = (aG, a·sG).
	UserPublicKey = core.UserPublicKey
	// KeyUpdate is the self-authenticating time-bound key update s·H1(T).
	KeyUpdate = core.KeyUpdate
	// Ciphertext is the basic (CPA) ciphertext ⟨rG, M ⊕ H2(K)⟩.
	Ciphertext = core.Ciphertext
	// CCACiphertext is the Fujisaki–Okamoto-transformed ciphertext.
	CCACiphertext = core.CCACiphertext
	// REACTCiphertext is the REACT-transformed ciphertext.
	REACTCiphertext = core.REACTCiphertext
	// HybridCiphertext is the AES-CTR+HMAC bulk-message ciphertext.
	HybridCiphertext = core.HybridCiphertext
	// EpochKey is the key-insulation credential a·I_T (§5.3.3).
	EpochKey = core.EpochKey
)

// Sentinel errors.
var (
	ErrInvalidPublicKey  = core.ErrInvalidPublicKey
	ErrInvalidUpdate     = core.ErrInvalidUpdate
	ErrInvalidCiphertext = core.ErrInvalidCiphertext
	ErrLabelMismatch     = core.ErrLabelMismatch
	ErrAuthFailed        = core.ErrAuthFailed
	ErrUnsafeLabel       = core.ErrUnsafeLabel
)

// NewScheme returns a TRE scheme over the parameter set.
func NewScheme(set *Params) *Scheme { return core.NewScheme(set) }

// Preset returns an embedded parameter set by name: "Test160" (fast,
// INSECURE, for tests), "SS512" (the paper-era size), "SS1024",
// "SS1536" (conservative modern), or "BLS12-381" (Type-3 asymmetric,
// ~128-bit security and roughly an order of magnitude faster).
func Preset(name string) (*Params, error) { return params.Preset(name) }

// PresetBLS12381 names the Type-3 BLS12-381 parameter set.
const PresetBLS12381 = params.PresetBLS12381

// ResolvePreset resolves the CLI -preset/-backend flag pair. An empty
// or "symmetric" backend keeps the named preset; "bls12381" selects the
// BLS12-381 preset (overriding -preset, whose symmetric default would
// otherwise mask the choice); anything else is an error. This keeps
// existing -preset invocations working while letting every tool opt
// into the asymmetric backend with one flag.
func ResolvePreset(preset, backendName string) (*Params, error) {
	switch backendName {
	case "", "symmetric":
		return Preset(preset)
	case "bls12381":
		return Preset(PresetBLS12381)
	default:
		return nil, fmt.Errorf("tre: unknown backend %q (want symmetric or bls12381)", backendName)
	}
}

// MustPreset is Preset for known-good names; panics on error.
func MustPreset(name string) *Params { return params.MustPreset(name) }

// PresetNames lists the embedded parameter sets.
func PresetNames() []string { return params.PresetNames() }

// GenerateParams creates a fresh parameter set with a pBits-bit field
// prime and a qBits-bit group order (e.g. 1536, 256). Pass a nil reader
// to use crypto/rand.
func GenerateParams(rng io.Reader, pBits, qBits int) (*Params, error) {
	return params.Generate(rng, pBits, qBits)
}

// UnmarshalParams parses the self-describing parameter format produced
// by (*Params).Marshal.
func UnmarshalParams(data []byte) (*Params, error) { return params.Unmarshal(data) }
