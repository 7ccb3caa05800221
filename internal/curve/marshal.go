package curve

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// Compressed point encoding tags. The encoding is 1+ByteLen bytes:
// tag ‖ x, where the tag carries the parity of y (SEC1-style), or an
// all-zero body with tagInfinity for the identity.
const (
	tagInfinity byte = 0x00
	tagEvenY    byte = 0x02
	tagOddY     byte = 0x03
)

// MarshalSize returns the size of a compressed point encoding.
func (c *Curve) MarshalSize() int { return 1 + c.F.ByteLen() }

// Marshal returns the canonical compressed encoding of p.
func (c *Curve) Marshal(p Point) []byte {
	return c.AppendMarshal(make([]byte, 0, c.MarshalSize()), p)
}

// AppendMarshal appends the canonical compressed encoding of p to dst
// and returns the extended slice. When dst has MarshalSize spare
// capacity — e.g. a stack buffer — the call performs no heap
// allocation.
func (c *Curve) AppendMarshal(dst []byte, p Point) []byte {
	n := c.MarshalSize()
	off := len(dst)
	if cap(dst)-off >= n {
		dst = dst[:off+n]
		clear(dst[off:])
	} else {
		dst = append(dst, make([]byte, n)...)
	}
	out := dst[off:]
	if p.inf {
		out[0] = tagInfinity
		return dst
	}
	if p.Y.Bit(0) == 1 {
		out[0] = tagOddY
	} else {
		out[0] = tagEvenY
	}
	p.X.FillBytes(out[1:])
	return dst
}

// Unmarshal decodes a compressed encoding, rejecting anything that is
// not the canonical encoding of a point on the curve.
func (c *Curve) Unmarshal(b []byte) (Point, error) {
	if len(b) != c.MarshalSize() {
		return Point{}, fmt.Errorf("curve: encoding is %d bytes, want %d", len(b), c.MarshalSize())
	}
	switch b[0] {
	case tagInfinity:
		for _, v := range b[1:] {
			if v != 0 {
				return Point{}, errors.New("curve: non-zero body on infinity encoding")
			}
		}
		return Infinity(), nil
	case tagEvenY, tagOddY:
		x, err := c.F.SetBytes(b[1:])
		if err != nil {
			return Point{}, fmt.Errorf("curve: bad x coordinate: %w", err)
		}
		p, ok := c.pointFromX(x, b[0]&1)
		if !ok {
			return Point{}, errors.New("curve: x coordinate is not on the curve")
		}
		return p, nil
	default:
		return Point{}, fmt.Errorf("curve: unknown point encoding tag %#x", b[0])
	}
}

// UnmarshalSubgroup decodes a compressed encoding and additionally
// verifies subgroup membership; use it for all untrusted inputs.
func (c *Curve) UnmarshalSubgroup(b []byte) (Point, error) {
	p, err := c.Unmarshal(b)
	if err != nil {
		return Point{}, err
	}
	if !p.inf && !c.InSubgroup(p) {
		return Point{}, errors.New("curve: point is not in the prime-order subgroup")
	}
	return p, nil
}

// orRandReader substitutes crypto/rand.Reader for a nil reader.
func orRandReader(rng io.Reader) io.Reader {
	if rng == nil {
		return rand.Reader
	}
	return rng
}
