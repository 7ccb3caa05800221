package hibe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"timedrelease/internal/backend"
	"timedrelease/internal/curve"
)

// Wire encodings for the objects the resilient time tree actually
// publishes and transmits: node-key bundles (the per-epoch cover
// publication) and tree ciphertexts. Same conventions as internal/wire:
// length-delimited, strict, subgroup-validated points, each encoded in
// its own group (S and the U_i in G2, the Q_i and U₀ in G1).

// MarshalNodeKey encodes a node bundle:
// pathLen ‖ (labelLen ‖ label)* ‖ S ‖ delegation ‖ qLen ‖ Q*.
func (sc *Scheme) MarshalNodeKey(k NodeKey) []byte {
	b := sc.Set.B
	out := binary.BigEndian.AppendUint16(nil, uint16(len(k.Path)))
	for _, label := range k.Path {
		out = binary.BigEndian.AppendUint16(out, uint16(len(label)))
		out = append(out, label...)
	}
	out = b.AppendPoint(out, backend.G2, k.S)
	scalarLen := (sc.Set.Q.BitLen() + 7) / 8
	out = append(out, k.Delegation.FillBytes(make([]byte, scalarLen))...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(k.Qs)))
	for _, q := range k.Qs {
		out = b.AppendPoint(out, backend.G1, q)
	}
	return out
}

// UnmarshalNodeKey decodes a node bundle, enforcing the structural
// invariant len(Qs) = len(Path) − 1.
func (sc *Scheme) UnmarshalNodeKey(data []byte) (NodeKey, error) {
	r := &byteReader{buf: data}
	nPath, err := r.u16()
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: path length: %w", err)
	}
	if nPath == 0 || nPath > 64 {
		return NodeKey{}, errors.New("hibe: implausible path depth")
	}
	path := make([]string, nPath)
	for i := range path {
		lbl, err := r.bytes16()
		if err != nil {
			return NodeKey{}, fmt.Errorf("hibe: path label %d: %w", i, err)
		}
		path[i] = string(lbl)
	}
	s, err := sc.point(r, backend.G2)
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: S point: %w", err)
	}
	scalarLen := (sc.Set.Q.BitLen() + 7) / 8
	dRaw, err := r.take(scalarLen)
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: delegation scalar: %w", err)
	}
	d := new(big.Int).SetBytes(dRaw)
	if d.Sign() <= 0 || d.Cmp(sc.Set.Q) >= 0 {
		return NodeKey{}, errors.New("hibe: delegation scalar out of range")
	}
	nQ, err := r.u16()
	if err != nil {
		return NodeKey{}, fmt.Errorf("hibe: Q count: %w", err)
	}
	if nQ != nPath-1 {
		return NodeKey{}, fmt.Errorf("hibe: %d Q values for depth %d (want %d)", nQ, nPath, nPath-1)
	}
	qs := make([]curve.Point, nQ)
	for i := range qs {
		qs[i], err = sc.point(r, backend.G1)
		if err != nil {
			return NodeKey{}, fmt.Errorf("hibe: Q[%d]: %w", i, err)
		}
	}
	if err := r.done(); err != nil {
		return NodeKey{}, err
	}
	return NodeKey{Path: path, S: s, Delegation: d, Qs: qs}, nil
}

// MarshalCiphertext encodes a tree ciphertext: U0 ‖ count ‖ U* ‖ len(V) ‖ V.
func (sc *Scheme) MarshalCiphertext(ct *Ciphertext) []byte {
	b := sc.Set.B
	out := b.AppendPoint(nil, backend.G1, ct.U0)
	out = binary.BigEndian.AppendUint16(out, uint16(len(ct.Us)))
	for _, u := range ct.Us {
		out = b.AppendPoint(out, backend.G2, u)
	}
	out = binary.BigEndian.AppendUint32(out, uint32(len(ct.V)))
	return append(out, ct.V...)
}

// UnmarshalCiphertext decodes a tree ciphertext.
func (sc *Scheme) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	r := &byteReader{buf: data}
	u0, err := sc.point(r, backend.G1)
	if err != nil {
		return nil, fmt.Errorf("hibe: U0: %w", err)
	}
	n, err := r.u16()
	if err != nil {
		return nil, fmt.Errorf("hibe: U count: %w", err)
	}
	if n > 64 {
		return nil, errors.New("hibe: implausible ciphertext depth")
	}
	us := make([]curve.Point, n)
	for i := range us {
		us[i], err = sc.point(r, backend.G2)
		if err != nil {
			return nil, fmt.Errorf("hibe: U[%d]: %w", i, err)
		}
	}
	vLen, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("hibe: V length: %w", err)
	}
	v, err := r.take(vLen)
	if err != nil {
		return nil, fmt.Errorf("hibe: V: %w", err)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &Ciphertext{U0: u0, Us: us, V: append([]byte(nil), v...)}, nil
}

// point reads one compressed, subgroup-validated point of group g.
func (sc *Scheme) point(r *byteReader, g backend.Group) (curve.Point, error) {
	raw, err := r.take(sc.Set.B.PointLen(g))
	if err != nil {
		return curve.Point{}, err
	}
	return sc.Set.B.ParsePoint(g, raw)
}

// byteReader is a minimal strict cursor (mirrors internal/wire's, which
// is unexported there; hibe cannot import wire without a cycle).
type byteReader struct {
	buf []byte
}

func (r *byteReader) take(n int) ([]byte, error) {
	if n < 0 || len(r.buf) < n {
		return nil, errors.New("hibe: truncated input")
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out, nil
}

func (r *byteReader) u16() (int, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return int(binary.BigEndian.Uint16(b)), nil
}

func (r *byteReader) bytes16() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	return r.take(n)
}

func (r *byteReader) u32() (int, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(b)
	if v > 1<<31 {
		return 0, errors.New("hibe: length field too large")
	}
	return int(v), nil
}

func (r *byteReader) done() error {
	if len(r.buf) != 0 {
		return errors.New("hibe: trailing bytes")
	}
	return nil
}
