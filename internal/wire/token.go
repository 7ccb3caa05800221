package wire

import (
	"errors"
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

// Blind-token encodings (docs/TOKENS.md). Three shapes share one
// layout discipline with the rest of the protocol — length-prefixed,
// canonical, every point subgroup-checked on decode:
//
//	token request  = u16 n ‖ n × G2 point      (blinded points, client→server)
//	token response = u16 n ‖ n × G2 point      (blind signatures, server→client)
//	token          = bytes16 seed ‖ G2 point   (redemption credential)
//
// The request/response framing is identical on purpose: both are "a
// short batch of G2 elements", and a decoder that accepts one accepts
// the other. maxTokenBatch bounds n well above any real issuance batch
// (the issuer enforces its own, smaller cap) but low enough that a
// hostile length prefix cannot make the decoder allocate unboundedly.

// maxTokenBatch bounds the points in one token request/response frame.
const maxTokenBatch = 4096

// tokenSeedLen pins the seed length: exactly token.SeedLen. The wire
// layer re-states the constant to avoid an import cycle (internal/token
// encodes through this package).
const tokenSeedLen = 32

// ErrTokenBatch reports a token request/response whose count field is
// zero or exceeds the decoder cap.
var ErrTokenBatch = errors.New("wire: token batch count out of range")

// MarshalTokenRequest encodes a batch of blinded token points.
func (c *Codec) MarshalTokenRequest(blinded []curve.Point) []byte {
	return c.marshalPointBatch(blinded)
}

// UnmarshalTokenRequest decodes a batch of blinded token points,
// rejecting identity and out-of-subgroup elements.
func (c *Codec) UnmarshalTokenRequest(data []byte) ([]curve.Point, error) {
	return c.unmarshalPointBatch(data)
}

// MarshalTokenResponse encodes a batch of blind signatures.
func (c *Codec) MarshalTokenResponse(signed []curve.Point) []byte {
	return c.marshalPointBatch(signed)
}

// UnmarshalTokenResponse decodes a batch of blind signatures.
func (c *Codec) UnmarshalTokenResponse(data []byte) ([]curve.Point, error) {
	return c.unmarshalPointBatch(data)
}

func (c *Codec) marshalPointBatch(pts []curve.Point) []byte {
	out := AppendU16(nil, len(pts))
	for _, p := range pts {
		out = c.Set.B.AppendPoint(out, backend.G2, p)
	}
	return out
}

func (c *Codec) unmarshalPointBatch(data []byte) ([]curve.Point, error) {
	r := NewReader(c.Set, data)
	n, err := r.U16()
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxTokenBatch {
		return nil, ErrTokenBatch
	}
	pts := make([]curve.Point, n)
	for i := range pts {
		p, err := r.Point(backend.G2)
		if err != nil {
			return nil, err
		}
		if p.IsInfinity() {
			return nil, fmt.Errorf("wire: token point %d is the identity", i)
		}
		pts[i] = p
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return pts, nil
}

// MarshalToken encodes a redemption credential: the 32-byte seed and
// the unblinded signature point.
func (c *Codec) MarshalToken(seed []byte, sig curve.Point) []byte {
	out := AppendBytes16(nil, seed)
	return c.Set.B.AppendPoint(out, backend.G2, sig)
}

// UnmarshalToken decodes a redemption credential: SplitToken's framing,
// then UnmarshalTokenSig on the point field.
func (c *Codec) UnmarshalToken(data []byte) (seed []byte, sig curve.Point, err error) {
	seed, enc, err := c.SplitToken(data)
	if err == nil {
		sig, err = c.UnmarshalTokenSig(enc)
	}
	if err != nil {
		return nil, curve.Point{}, err
	}
	return seed, sig, nil
}

// SplitToken checks a redemption credential's framing alone: a 32-byte
// seed, one G2 point field, no trailing bytes. It returns the seed and
// the point field undecoded, so a gate holding the issuance key can
// compare the field with the encoding it expects before any point work.
func (c *Codec) SplitToken(data []byte) (seed, enc []byte, err error) {
	r := NewReader(c.Set, data)
	if seed, err = r.Bytes16(); err != nil {
		return nil, nil, err
	}
	if len(seed) != tokenSeedLen {
		return nil, nil, fmt.Errorf("wire: token seed is %d bytes, want %d", len(seed), tokenSeedLen)
	}
	if enc, err = r.Take(c.Set.B.PointLen(backend.G2)); err == nil {
		err = r.Done()
	}
	if err != nil {
		return nil, nil, err
	}
	return seed, enc, nil
}

// UnmarshalTokenSig decodes a token's point field (SplitToken's second
// result), enforcing subgroup membership and refusing the identity.
func (c *Codec) UnmarshalTokenSig(enc []byte) (curve.Point, error) {
	r := NewReader(c.Set, enc)
	sig, err := r.Point(backend.G2)
	if err == nil && sig.IsInfinity() {
		err = errors.New("wire: token signature is the identity")
	}
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return curve.Point{}, err
	}
	return sig, nil
}
