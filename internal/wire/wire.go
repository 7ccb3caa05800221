// Package wire defines canonical binary encodings for every object that
// crosses a trust boundary: public keys, time-bound key updates,
// ciphertexts, and the application-level envelope a sender actually
// transmits. All encodings are length-delimited, versioned and strict —
// any trailing garbage, truncation, or non-canonical point encoding is
// rejected, and points are checked for subgroup membership on decode.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
	"timedrelease/internal/params"
)

// Version is the wire-format version byte leading every envelope.
const Version byte = 1

// ErrTruncated reports an input shorter than its structure requires.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTrailing reports unconsumed bytes after a complete structure.
var ErrTrailing = errors.New("wire: trailing bytes after structure")

// ErrBackendMismatch reports a point encoding that appears to come from
// a different pairing backend than the decoding codec's: the
// compression-tag byte of the other backend family was found where this
// backend's was expected. BLS12-381 (zcash) encodings always set the
// 0x80 compression bit in the leading byte; the Type-1 reference
// encodings use plain tag bytes (0x00, 0x02, 0x03) with that bit
// clear. Decoders surface it so callers can distinguish "wrong
// backend" from mere corruption.
var ErrBackendMismatch = errors.New("wire: point encoded under a different pairing backend")

// Codec marshals and unmarshals protocol objects for one parameter set
// (point sizes depend on the field width).
type Codec struct {
	Set *params.Set
}

// NewCodec returns a codec bound to the parameter set.
func NewCodec(set *params.Set) *Codec { return &Codec{Set: set} }

// --- primitive helpers -------------------------------------------------

type reader struct {
	buf []byte
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || len(r.buf) < n {
		return nil, ErrTruncated
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out, nil
}

func (r *reader) u16() (int, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

func (r *reader) u32() (int, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(b)
	if v > 1<<31 {
		return 0, errors.New("wire: length field too large")
	}
	return int(v), nil
}

func (r *reader) bytes16() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

func (r *reader) bytes32() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

func (r *reader) done() error {
	if len(r.buf) != 0 {
		return ErrTrailing
	}
	return nil
}

func appendU16(b []byte, v int) []byte {
	if v < 0 || v > 0xffff {
		panic("wire: u16 overflow")
	}
	return binary.BigEndian.AppendUint16(b, uint16(v))
}

func appendU32(b []byte, v int) []byte {
	if v < 0 || int64(v) > 1<<31 {
		panic("wire: u32 overflow")
	}
	return binary.BigEndian.AppendUint32(b, uint32(v))
}

func appendBytes16(b, data []byte) []byte {
	b = appendU16(b, len(data))
	return append(b, data...)
}

func appendBytes32(b, data []byte) []byte {
	b = appendU32(b, len(data))
	return append(b, data...)
}

// point reads one compressed point of group g with subgroup validation.
func (c *Codec) point(r *reader, g backend.Group) (curve.Point, error) {
	raw, err := r.take(c.Set.B.PointLen(g))
	if err != nil {
		return curve.Point{}, err
	}
	return c.parsePoint(g, raw)
}

// parsePoint decodes one PointLen(g)-byte encoding: on the curve, in
// the subgroup, and of this codec's backend.
func (c *Codec) parsePoint(g backend.Group, raw []byte) (curve.Point, error) {
	pt, err := c.Set.B.ParsePoint(g, raw)
	if err != nil {
		if foreignTag(c.Set.Asymmetric(), raw[0]) {
			return curve.Point{}, fmt.Errorf("%w: %v", ErrBackendMismatch, err)
		}
		return curve.Point{}, err
	}
	return pt, nil
}

// foreignTag reports whether the leading byte of a failed point decode
// carries the compression tag of the other backend family: BLS12-381
// encodings always have the 0x80 bit set, Type-1 encodings never do.
// Only consulted after a parse failure — a byte that merely looks
// foreign on a point that decodes fine is not an error.
func foreignTag(asymmetric bool, tag byte) bool {
	return asymmetric != (tag&0x80 != 0)
}

// appendPoint appends the canonical encoding of a group-g point.
func (c *Codec) appendPoint(dst []byte, g backend.Group, p curve.Point) []byte {
	return c.Set.B.AppendPoint(dst, g, p)
}

// --- public keys --------------------------------------------------------

// MarshalServerPublicKey encodes (G, sG), and on asymmetric sets also
// the G2 mirror sG2 — Type-3 verification equations need the key in the
// right pairing slot. The Type-1 encoding is unchanged from the
// pre-backend format.
func (c *Codec) MarshalServerPublicKey(pk core.ServerPublicKey) []byte {
	out := c.appendPoint(nil, backend.G1, pk.G)
	out = c.appendPoint(out, backend.G1, pk.SG)
	if c.Set.Asymmetric() {
		out = c.appendPoint(out, backend.G2, pk.SG2)
	}
	return out
}

// UnmarshalServerPublicKey decodes and validates (G, sG) and, on
// asymmetric sets, sG2 — including the cross-group consistency pairing
// ê(sG, G2) = ê(G, sG2), so a decoded key can never carry mismatched
// G1/G2 halves. On symmetric sets SG2 is set to SG.
func (c *Codec) UnmarshalServerPublicKey(data []byte) (core.ServerPublicKey, error) {
	r := &reader{buf: data}
	g, err := c.point(r, backend.G1)
	if err != nil {
		return core.ServerPublicKey{}, fmt.Errorf("wire: server key G: %w", err)
	}
	sg, err := c.point(r, backend.G1)
	if err != nil {
		return core.ServerPublicKey{}, fmt.Errorf("wire: server key sG: %w", err)
	}
	if g.IsInfinity() || sg.IsInfinity() {
		return core.ServerPublicKey{}, errors.New("wire: server key contains the identity")
	}
	sg2 := sg
	if c.Set.Asymmetric() {
		sg2, err = c.point(r, backend.G2)
		if err != nil {
			return core.ServerPublicKey{}, fmt.Errorf("wire: server key sG2: %w", err)
		}
		if sg2.IsInfinity() {
			return core.ServerPublicKey{}, errors.New("wire: server key contains the identity")
		}
	}
	if err := r.done(); err != nil {
		return core.ServerPublicKey{}, err
	}
	if c.Set.Asymmetric() && !c.Set.B.SamePairing(sg, c.Set.G2, g, sg2) {
		return core.ServerPublicKey{}, errors.New("wire: server key G2 mirror does not match sG")
	}
	return core.ServerPublicKey{G: g, SG: sg, SG2: sg2}, nil
}

// MarshalUserPublicKey encodes (aG, asG); both halves live in G1.
func (c *Codec) MarshalUserPublicKey(pk core.UserPublicKey) []byte {
	out := c.appendPoint(nil, backend.G1, pk.AG)
	return c.appendPoint(out, backend.G1, pk.ASG)
}

// UnmarshalUserPublicKey decodes and validates (aG, asG). Note that the
// pairing well-formedness check is separate (core.VerifyUserPublicKey) —
// this only enforces curve/subgroup validity.
func (c *Codec) UnmarshalUserPublicKey(data []byte) (core.UserPublicKey, error) {
	r := &reader{buf: data}
	ag, err := c.point(r, backend.G1)
	if err != nil {
		return core.UserPublicKey{}, fmt.Errorf("wire: user key aG: %w", err)
	}
	asg, err := c.point(r, backend.G1)
	if err != nil {
		return core.UserPublicKey{}, fmt.Errorf("wire: user key asG: %w", err)
	}
	if err := r.done(); err != nil {
		return core.UserPublicKey{}, err
	}
	return core.UserPublicKey{AG: ag, ASG: asg}, nil
}

// --- key updates ----------------------------------------------------------

// MarshalKeyUpdate encodes a time-bound key update (label ‖ point).
// The update is a BLS signature s·H1(T), a G2 point.
func (c *Codec) MarshalKeyUpdate(u core.KeyUpdate) []byte {
	out := appendBytes16(nil, []byte(u.Label))
	return c.appendPoint(out, backend.G2, u.Point)
}

// UnmarshalKeyUpdate decodes an update. The signature itself still
// requires verification against the server public key (VerifyUpdate).
func (c *Codec) UnmarshalKeyUpdate(data []byte) (core.KeyUpdate, error) {
	r := &reader{buf: data}
	label, err := r.bytes16()
	if err != nil {
		return core.KeyUpdate{}, fmt.Errorf("wire: update label: %w", err)
	}
	pt, err := c.point(r, backend.G2)
	if err != nil {
		return core.KeyUpdate{}, fmt.Errorf("wire: update point: %w", err)
	}
	if err := r.done(); err != nil {
		return core.KeyUpdate{}, err
	}
	return core.KeyUpdate{Label: string(label), Point: pt}, nil
}
