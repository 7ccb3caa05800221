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

// UnmarshalToken decodes a redemption credential, enforcing the seed
// length and signature subgroup membership.
func (c *Codec) UnmarshalToken(data []byte) ([]byte, curve.Point, error) {
	r := NewReader(c.Set, data)
	seed, err := r.Bytes16()
	if err != nil {
		return nil, curve.Point{}, err
	}
	if len(seed) != tokenSeedLen {
		return nil, curve.Point{}, fmt.Errorf("wire: token seed is %d bytes, want %d", len(seed), tokenSeedLen)
	}
	sig, err := r.Point(backend.G2)
	if err != nil {
		return nil, curve.Point{}, err
	}
	if sig.IsInfinity() {
		return nil, curve.Point{}, errors.New("wire: token signature is the identity")
	}
	if err := r.Done(); err != nil {
		return nil, curve.Point{}, err
	}
	return seed, sig, nil
}
