package curve

import (
	"errors"
	"fmt"

	"timedrelease/internal/ff"
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
	if p.inf {
		return append(append(dst, tagInfinity), make([]byte, c.F.ByteLen())...)
	}
	x, y := c.limbs(p)
	return c.F.AppendMontBytes(append(dst, tagEvenY|c.parity(y)), x)
}

// parity returns the low bit of the integer in [0, p) whose Montgomery
// form is y, the bit the encoding's tag carries.
func (c *Curve) parity(y ff.MontElem) byte {
	var buf [256]byte // the widest field ff.NewField accepts, 2048 bits
	b := c.F.AppendMontBytes(buf[:0], y)
	return b[len(b)-1] & 1
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
// verifies subgroup membership; use it for all untrusted inputs. The
// lift already put the point on the curve, so the test is the x-only
// ladder alone, and its verdict travels with the point: InSubgroup on
// the result answers without running it again.
func (c *Curve) UnmarshalSubgroup(b []byte) (Point, error) {
	p, err := c.Unmarshal(b)
	if err != nil || p.inf {
		return p, err
	}
	if x, _ := p.Limbs(); !c.qTorsion(x) {
		return Point{}, errors.New("curve: point is not in the prime-order subgroup")
	}
	p.member = true
	return p, nil
}
