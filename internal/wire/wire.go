// Package wire defines canonical binary encodings for the core objects
// that cross a trust boundary: public keys, time-bound key updates,
// ciphertexts, catch-up pages, tokens, and the application-level
// envelope a sender actually transmits. All encodings are
// length-delimited, versioned and strict — any trailing garbage,
// truncation, or non-canonical point encoding is rejected, and points
// are checked for subgroup membership on decode. The variant schemes
// own their encodings and build them on this package's Reader and
// Append helpers; wire imports none of them.
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

// --- the strict cursor ---------------------------------------------------

// Reader is the one strict cursor every decoder in the tree reads
// through, this package's and those of the packages that own their
// formats (the variant schemes, threshold partials): a read past the
// end fails with ErrTruncated, Done fails with ErrTrailing on leftover
// bytes, and Point validates curve and subgroup membership and names
// ErrBackendMismatch.
type Reader struct {
	set *params.Set
	buf []byte
}

// NewReader returns a cursor over data whose points are decoded under
// set (nil for a structure without points).
func NewReader(set *params.Set, data []byte) *Reader { return &Reader{set: set, buf: data} }

// Take consumes the next n bytes.
func (r *Reader) Take(n int) ([]byte, error) {
	if n < 0 || len(r.buf) < n {
		return nil, ErrTruncated
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out, nil
}

// U16 reads a big-endian 16-bit length or count.
func (r *Reader) U16() (int, error) {
	b, err := r.Take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

// U32 reads a big-endian 32-bit length or count of at most 2³¹.
func (r *Reader) U32() (int, error) {
	b, err := r.Take(4)
	if err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(b)
	if v > 1<<31 {
		return 0, errors.New("wire: length field too large")
	}
	return int(v), nil
}

// Bytes16 reads a U16-length-prefixed byte string.
func (r *Reader) Bytes16() ([]byte, error) {
	n, err := r.U16()
	if err != nil {
		return nil, err
	}
	return r.Take(n)
}

// Bytes32 reads a U32-length-prefixed byte string.
func (r *Reader) Bytes32() ([]byte, error) {
	n, err := r.U32()
	if err != nil {
		return nil, err
	}
	return r.Take(n)
}

// Point reads one compressed point of group g with subgroup validation.
func (r *Reader) Point(g backend.Group) (curve.Point, error) {
	raw, err := r.Take(r.set.B.PointLen(g))
	if err != nil {
		return curve.Point{}, err
	}
	return parsePoint(r.set, g, raw)
}

// Done fails when bytes remain after a complete structure.
func (r *Reader) Done() error {
	if len(r.buf) != 0 {
		return ErrTrailing
	}
	return nil
}

// AppendU16 appends v as a big-endian 16-bit field.
func AppendU16(b []byte, v int) []byte {
	if v < 0 || v > 0xffff {
		panic("wire: u16 overflow")
	}
	return binary.BigEndian.AppendUint16(b, uint16(v))
}

// AppendU32 appends v as a big-endian 32-bit field.
func AppendU32(b []byte, v int) []byte {
	if v < 0 || int64(v) > 1<<31 {
		panic("wire: u32 overflow")
	}
	return binary.BigEndian.AppendUint32(b, uint32(v))
}

// AppendBytes16 appends data behind its U16 length.
func AppendBytes16(b, data []byte) []byte {
	b = AppendU16(b, len(data))
	return append(b, data...)
}

// AppendBytes32 appends data behind its U32 length.
func AppendBytes32(b, data []byte) []byte {
	b = AppendU32(b, len(data))
	return append(b, data...)
}

// parsePoint decodes one PointLen(g)-byte encoding: on the curve, in
// the subgroup, and of set's backend.
func parsePoint(set *params.Set, g backend.Group, raw []byte) (curve.Point, error) {
	pt, err := set.B.ParsePoint(g, raw)
	if err != nil {
		if foreignTag(set.Asymmetric(), raw[0]) {
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

// --- public keys --------------------------------------------------------

// MarshalServerPublicKey encodes (G, sG), and on asymmetric sets also
// the G2 mirror sG2 — Type-3 verification equations need the key in the
// right pairing slot. The Type-1 encoding is unchanged from the
// pre-backend format.
func (c *Codec) MarshalServerPublicKey(pk core.ServerPublicKey) []byte {
	out := c.Set.B.AppendPoint(nil, backend.G1, pk.G)
	out = c.Set.B.AppendPoint(out, backend.G1, pk.SG)
	if c.Set.Asymmetric() {
		out = c.Set.B.AppendPoint(out, backend.G2, pk.SG2)
	}
	return out
}

// UnmarshalServerPublicKey decodes and validates (G, sG) and, on
// asymmetric sets, sG2 — including the cross-group consistency pairing
// ê(sG, G2) = ê(G, sG2), so a decoded key can never carry mismatched
// G1/G2 halves. On symmetric sets SG2 is set to SG.
func (c *Codec) UnmarshalServerPublicKey(data []byte) (core.ServerPublicKey, error) {
	r := NewReader(c.Set, data)
	g, err := r.Point(backend.G1)
	if err != nil {
		return core.ServerPublicKey{}, fmt.Errorf("wire: server key G: %w", err)
	}
	sg, err := r.Point(backend.G1)
	if err != nil {
		return core.ServerPublicKey{}, fmt.Errorf("wire: server key sG: %w", err)
	}
	if g.IsInfinity() || sg.IsInfinity() {
		return core.ServerPublicKey{}, errors.New("wire: server key contains the identity")
	}
	sg2 := sg
	if c.Set.Asymmetric() {
		sg2, err = r.Point(backend.G2)
		if err != nil {
			return core.ServerPublicKey{}, fmt.Errorf("wire: server key sG2: %w", err)
		}
		if sg2.IsInfinity() {
			return core.ServerPublicKey{}, errors.New("wire: server key contains the identity")
		}
	}
	if err := r.Done(); err != nil {
		return core.ServerPublicKey{}, err
	}
	if c.Set.Asymmetric() && !c.Set.B.SamePairing(sg, c.Set.G2, g, sg2) {
		return core.ServerPublicKey{}, errors.New("wire: server key G2 mirror does not match sG")
	}
	return core.ServerPublicKey{G: g, SG: sg, SG2: sg2}, nil
}

// MarshalUserPublicKey encodes (aG, asG); both halves live in G1.
func (c *Codec) MarshalUserPublicKey(pk core.UserPublicKey) []byte {
	out := c.Set.B.AppendPoint(nil, backend.G1, pk.AG)
	return c.Set.B.AppendPoint(out, backend.G1, pk.ASG)
}

// UnmarshalUserPublicKey decodes and validates (aG, asG). Note that the
// pairing well-formedness check is separate (core.VerifyUserPublicKey) —
// this only enforces curve/subgroup validity.
func (c *Codec) UnmarshalUserPublicKey(data []byte) (core.UserPublicKey, error) {
	r := NewReader(c.Set, data)
	ag, err := r.Point(backend.G1)
	if err != nil {
		return core.UserPublicKey{}, fmt.Errorf("wire: user key aG: %w", err)
	}
	asg, err := r.Point(backend.G1)
	if err != nil {
		return core.UserPublicKey{}, fmt.Errorf("wire: user key asG: %w", err)
	}
	if err := r.Done(); err != nil {
		return core.UserPublicKey{}, err
	}
	return core.UserPublicKey{AG: ag, ASG: asg}, nil
}

// --- key updates ----------------------------------------------------------

// MarshalKeyUpdate encodes a time-bound key update (label ‖ point).
// The update is a BLS signature s·H1(T), a G2 point.
func (c *Codec) MarshalKeyUpdate(u core.KeyUpdate) []byte {
	out := AppendBytes16(nil, []byte(u.Label))
	return c.Set.B.AppendPoint(out, backend.G2, u.Point)
}

// UnmarshalKeyUpdate decodes an update. The signature itself still
// requires verification against the server public key (VerifyUpdate).
func (c *Codec) UnmarshalKeyUpdate(data []byte) (core.KeyUpdate, error) {
	r := NewReader(c.Set, data)
	label, err := r.Bytes16()
	if err != nil {
		return core.KeyUpdate{}, fmt.Errorf("wire: update label: %w", err)
	}
	pt, err := r.Point(backend.G2)
	if err != nil {
		return core.KeyUpdate{}, fmt.Errorf("wire: update point: %w", err)
	}
	if err := r.Done(); err != nil {
		return core.KeyUpdate{}, err
	}
	return core.KeyUpdate{Label: string(label), Point: pt}, nil
}
