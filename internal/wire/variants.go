package wire

import (
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
	"timedrelease/internal/idtre"
	"timedrelease/internal/multiserver"
	"timedrelease/internal/policylock"
)

// Encodings for the scheme variants. Same conventions as the core
// encodings: length-delimited, strict, subgroup-validated points.
//
// Headers are G1 points and attestations G2 points on every backend, so
// the ID-TRE and policy-lock codecs run wherever their schemes do. Only
// the multi-server scheme is Type-1 (see package multiserver), and only
// its decoder refuses an asymmetric set with ErrSymmetricOnly rather
// than producing an object no scheme can consume.

// MarshalIDCiphertext encodes an ID-TRE ciphertext.
func (c *Codec) MarshalIDCiphertext(ct *idtre.Ciphertext) []byte {
	out := c.appendPoint(nil, backend.G1, ct.U)
	return appendBytes32(out, ct.V)
}

// UnmarshalIDCiphertext decodes an ID-TRE ciphertext.
func (c *Codec) UnmarshalIDCiphertext(data []byte) (*idtre.Ciphertext, error) {
	r := &reader{buf: data}
	u, err := c.point(r, backend.G1)
	if err != nil {
		return nil, fmt.Errorf("wire: idtre U: %w", err)
	}
	v, err := r.bytes32()
	if err != nil {
		return nil, fmt.Errorf("wire: idtre V: %w", err)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &idtre.Ciphertext{U: u, V: v}, nil
}

// MarshalMultiCiphertext encodes a multi-server ciphertext: a u16 header
// count, the header points, and the payload.
func (c *Codec) MarshalMultiCiphertext(ct *multiserver.Ciphertext) []byte {
	out := appendU16(nil, len(ct.Us))
	for _, u := range ct.Us {
		out = c.appendPoint(out, backend.G1, u)
	}
	return appendBytes32(out, ct.V)
}

// UnmarshalMultiCiphertext decodes a multi-server ciphertext.
func (c *Codec) UnmarshalMultiCiphertext(data []byte) (*multiserver.Ciphertext, error) {
	if c.Set.Asymmetric() {
		// No scheme can consume it: the multi-server sender's key check
		// ê(aG, Σ sᵢGᵢ) = ê(G, a·Σ sᵢGᵢ) pairs two G1 points.
		return nil, backend.ErrSymmetricOnly
	}
	r := &reader{buf: data}
	n, err := r.u16()
	if err != nil {
		return nil, fmt.Errorf("wire: multiserver header count: %w", err)
	}
	if n == 0 {
		return nil, fmt.Errorf("wire: multiserver ciphertext needs at least one header")
	}
	us := make([]curve.Point, n)
	for i := 0; i < n; i++ {
		us[i], err = c.point(r, backend.G1)
		if err != nil {
			return nil, fmt.Errorf("wire: multiserver header %d: %w", i, err)
		}
	}
	v, err := r.bytes32()
	if err != nil {
		return nil, fmt.Errorf("wire: multiserver V: %w", err)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &multiserver.Ciphertext{Us: us, V: v}, nil
}

// MarshalPolicyCiphertext encodes a policy-locked ciphertext: the policy
// in its textual syntax, the clause headers, and the payload.
func (c *Codec) MarshalPolicyCiphertext(ct *policylock.Ciphertext) []byte {
	out := appendBytes16(nil, []byte(ct.Policy.String()))
	out = appendU16(out, len(ct.Headers))
	for _, h := range ct.Headers {
		out = c.appendPoint(out, backend.G1, h.U)
		out = appendBytes16(out, h.Wrap)
	}
	return appendBytes32(out, ct.V)
}

// UnmarshalPolicyCiphertext decodes a policy-locked ciphertext, checking
// that the header count matches the parsed policy's clause count.
func (c *Codec) UnmarshalPolicyCiphertext(data []byte) (*policylock.Ciphertext, error) {
	r := &reader{buf: data}
	rawPolicy, err := r.bytes16()
	if err != nil {
		return nil, fmt.Errorf("wire: policy text: %w", err)
	}
	policy, err := policylock.ParsePolicy(string(rawPolicy))
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	n, err := r.u16()
	if err != nil {
		return nil, fmt.Errorf("wire: policy header count: %w", err)
	}
	if n != len(policy.Clauses) {
		return nil, fmt.Errorf("wire: %d headers for %d policy clauses", n, len(policy.Clauses))
	}
	ct := &policylock.Ciphertext{Policy: policy}
	for i := 0; i < n; i++ {
		u, err := c.point(r, backend.G1)
		if err != nil {
			return nil, fmt.Errorf("wire: policy header %d point: %w", i, err)
		}
		wrap, err := r.bytes16()
		if err != nil {
			return nil, fmt.Errorf("wire: policy header %d wrap: %w", i, err)
		}
		ct.Headers = append(ct.Headers, policylock.ClauseHeader{U: u, Wrap: wrap})
	}
	v, err := r.bytes32()
	if err != nil {
		return nil, fmt.Errorf("wire: policy V: %w", err)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	ct.V = v
	return ct, nil
}

// MarshalAttestation encodes a witness attestation.
func (c *Codec) MarshalAttestation(a policylock.Attestation) []byte {
	out := appendBytes16(nil, []byte(a.Condition))
	return c.appendPoint(out, backend.G2, a.Point)
}

// UnmarshalAttestation decodes a witness attestation (verification
// against the witness key is separate).
func (c *Codec) UnmarshalAttestation(data []byte) (policylock.Attestation, error) {
	r := &reader{buf: data}
	cond, err := r.bytes16()
	if err != nil {
		return policylock.Attestation{}, fmt.Errorf("wire: attestation condition: %w", err)
	}
	pt, err := c.point(r, backend.G2)
	if err != nil {
		return policylock.Attestation{}, fmt.Errorf("wire: attestation point: %w", err)
	}
	if err := r.done(); err != nil {
		return policylock.Attestation{}, err
	}
	return policylock.Attestation{Condition: string(cond), Point: pt}, nil
}
