package hibe

import (
	"errors"
	"fmt"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/wire"
)

// Wire encodings for the objects the resilient time tree actually
// publishes and transmits: node-key bundles (the per-epoch cover
// publication) and tree ciphertexts. They read through internal/wire's
// strict cursor: length-delimited, strict, subgroup-validated points,
// each encoded in its own group (S and the U_i in G2, the Q_i and U₀ in
// G1).

// MarshalNodeKey encodes a node bundle:
// pathLen ‖ (labelLen ‖ label)* ‖ S ‖ delegation ‖ qLen ‖ Q*.
func (sc *Scheme) MarshalNodeKey(k NodeKey) []byte {
	b := sc.Set.B
	out := wire.AppendU16(nil, len(k.Path))
	for _, label := range k.Path {
		out = wire.AppendBytes16(out, []byte(label))
	}
	out = b.AppendPoint(out, backend.G2, k.S)
	scalarLen := (sc.Set.Q.BitLen() + 7) / 8
	out = append(out, k.Delegation.FillBytes(make([]byte, scalarLen))...)
	out = wire.AppendU16(out, len(k.Qs))
	for _, q := range k.Qs {
		out = b.AppendPoint(out, backend.G1, q)
	}
	return out
}

// UnmarshalNodeKey decodes a node bundle, enforcing the structural
// invariant len(Qs) = len(Path) − 1.
func (sc *Scheme) UnmarshalNodeKey(data []byte) (NodeKey, error) {
	r := wire.NewReader(sc.Set, data)
	nPath, err := r.U16()
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: path length: %w", err)
	}
	if nPath == 0 || nPath > 64 {
		return NodeKey{}, errors.New("hibe: implausible path depth")
	}
	path := make([]string, nPath)
	for i := range path {
		lbl, err := r.Bytes16()
		if err != nil {
			return NodeKey{}, fmt.Errorf("hibe: path label %d: %w", i, err)
		}
		path[i] = string(lbl)
	}
	s, err := r.Point(backend.G2)
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: S point: %w", err)
	}
	dRaw, err := r.Take((sc.Set.Q.BitLen() + 7) / 8)
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: delegation scalar: %w", err)
	}
	d := new(big.Int).SetBytes(dRaw)
	if d.Sign() <= 0 || d.Cmp(sc.Set.Q) >= 0 {
		return NodeKey{}, errors.New("hibe: delegation scalar out of range")
	}
	nQ, err := r.U16()
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: Q count: %w", err)
	}
	if nQ != nPath-1 {
		return NodeKey{}, fmt.Errorf("hibe: %d Q values for depth %d (want %d)", nQ, nPath, nPath-1)
	}
	qs := make([]curve.Point, nQ)
	for i := range qs {
		if qs[i], err = r.Point(backend.G1); err != nil {
			return NodeKey{}, fmt.Errorf("hibe: Q[%d]: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return NodeKey{}, err
	}
	return NodeKey{Path: path, S: s, Delegation: d, Qs: qs}, nil
}

// MarshalCiphertext encodes a tree ciphertext: U0 ‖ count ‖ U* ‖ len(V) ‖ V.
func (sc *Scheme) MarshalCiphertext(ct *Ciphertext) []byte {
	b := sc.Set.B
	out := b.AppendPoint(nil, backend.G1, ct.U0)
	out = wire.AppendU16(out, len(ct.Us))
	for _, u := range ct.Us {
		out = b.AppendPoint(out, backend.G2, u)
	}
	return wire.AppendBytes32(out, ct.V)
}

// UnmarshalCiphertext decodes a tree ciphertext.
func (sc *Scheme) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	r := wire.NewReader(sc.Set, data)
	u0, err := r.Point(backend.G1)
	if err != nil {
		return nil, fmt.Errorf("hibe: U0: %w", err)
	}
	n, err := r.U16()
	if err != nil {
		return nil, fmt.Errorf("hibe: U count: %w", err)
	}
	if n > 64 {
		return nil, errors.New("hibe: implausible ciphertext depth")
	}
	us := make([]curve.Point, n)
	for i := range us {
		if us[i], err = r.Point(backend.G2); err != nil {
			return nil, fmt.Errorf("hibe: U[%d]: %w", i, err)
		}
	}
	v, err := r.Bytes32()
	if err != nil {
		return nil, fmt.Errorf("hibe: V: %w", err)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &Ciphertext{U0: u0, Us: us, V: append([]byte(nil), v...)}, nil
}
