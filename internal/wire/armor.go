package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Armored round-ciphertext file format. This is the at-rest artifact a
// round-mode sender hands to a receiver: a self-describing header
// naming the round clock (period + genesis) and the round number, an
// 8-byte fingerprint of the pairing parameter set, and the ordinary
// wire envelope as the payload — wrapped in PEM-style armor so it
// survives mail, chat and copy/paste. The receiver reconstructs the
// release label from (period, genesis, round) locally; no out-of-band
// agreement beyond the server (or threshold group) public key is
// needed.
//
// Binary layout before armoring (all integers big-endian):
//
//	magic    8 bytes  "TREARM01"
//	fpr      8 bytes  sha256(params.Set.Marshal())[:8]
//	round    8 bytes  uint64 round number
//	period   8 bytes  int64 round duration in nanoseconds
//	genesis  8 bytes  int64 genesis instant, Unix nanoseconds UTC
//	envelope bytes32  a wire Envelope (version, kind, label, ciphertext)
//
// The decoder is strict: wrong magic, short input, trailing bytes
// after the envelope length, junk after the END line and parameter
// fingerprints that don't match the decoding codec are all rejected
// with typed errors.

// armorMagic begins every armored body; the trailing "01" is the
// format version.
const armorMagic = "TREARM01"

const (
	armorBegin = "-----BEGIN TRE ROUND CIPHERTEXT-----"
	armorEnd   = "-----END TRE ROUND CIPHERTEXT-----"
	armorCols  = 64
)

// ErrNotArmored reports input that does not carry the armor
// begin/end markers or the binary magic.
var ErrNotArmored = errors.New("wire: not an armored round ciphertext")

// ErrParamsMismatch reports an armored ciphertext produced under a
// different parameter set than the one decoding it.
var ErrParamsMismatch = errors.New("wire: armored ciphertext parameter fingerprint mismatch")

// Armored is a decoded round-ciphertext file.
type Armored struct {
	Round    uint64        // beacon round the ciphertext opens at
	Period   time.Duration // round duration of the sender's clock
	Genesis  time.Time     // round-0 start instant (UTC)
	Envelope []byte        // wire Envelope bytes (UnmarshalEnvelope)
}

// Fingerprint returns the 8-byte parameter-set fingerprint embedded in
// armored files: the leading bytes of sha256 over the canonical
// parameter marshaling.
func (c *Codec) Fingerprint() [8]byte {
	sum := sha256.Sum256(c.Set.Marshal())
	var fpr [8]byte
	copy(fpr[:], sum[:8])
	return fpr
}

// EncodeArmored renders an armored round-ciphertext file.
func (c *Codec) EncodeArmored(a Armored) []byte {
	fpr := c.Fingerprint()
	body := make([]byte, 0, 40+4+len(a.Envelope))
	body = append(body, armorMagic...)
	body = append(body, fpr[:]...)
	body = binary.BigEndian.AppendUint64(body, a.Round)
	body = binary.BigEndian.AppendUint64(body, uint64(int64(a.Period)))
	body = binary.BigEndian.AppendUint64(body, uint64(a.Genesis.UnixNano()))
	body = AppendBytes32(body, a.Envelope)

	enc := base64.StdEncoding.EncodeToString(body)
	var out bytes.Buffer
	out.Grow(len(armorBegin) + len(armorEnd) + len(enc) + len(enc)/armorCols + 4)
	out.WriteString(armorBegin)
	out.WriteByte('\n')
	for len(enc) > armorCols {
		out.WriteString(enc[:armorCols])
		out.WriteByte('\n')
		enc = enc[armorCols:]
	}
	out.WriteString(enc)
	out.WriteByte('\n')
	out.WriteString(armorEnd)
	out.WriteByte('\n')
	return out.Bytes()
}

// IsArmored reports whether data looks like an armored round
// ciphertext (used by trectl to sniff the input format before
// committing to a decode path).
func IsArmored(data []byte) bool {
	return bytes.HasPrefix(bytes.TrimLeft(data, " \t\r\n"), []byte(armorBegin))
}

// DecodeArmored parses an armored round-ciphertext file and checks its
// parameter fingerprint against the codec's set. The envelope payload
// is returned as raw bytes; callers pass it to UnmarshalEnvelope.
func (c *Codec) DecodeArmored(data []byte) (Armored, error) {
	body, err := unarmor(data)
	if err != nil {
		return Armored{}, err
	}
	r := NewReader(c.Set, body)
	magic, err := r.Take(len(armorMagic))
	if err != nil || string(magic) != armorMagic {
		return Armored{}, ErrNotArmored
	}
	fpr, err := r.Take(8)
	if err != nil {
		return Armored{}, fmt.Errorf("wire: armored fingerprint: %w", err)
	}
	want := c.Fingerprint()
	if !bytes.Equal(fpr, want[:]) {
		return Armored{}, fmt.Errorf("%w: file %x, codec %s %x", ErrParamsMismatch, fpr, c.Set.Name, want[:])
	}
	round, err := r.u64()
	if err != nil {
		return Armored{}, fmt.Errorf("wire: armored round: %w", err)
	}
	periodNs, err := r.u64()
	if err != nil {
		return Armored{}, fmt.Errorf("wire: armored period: %w", err)
	}
	genesisNs, err := r.u64()
	if err != nil {
		return Armored{}, fmt.Errorf("wire: armored genesis: %w", err)
	}
	if int64(periodNs) <= 0 {
		return Armored{}, errors.New("wire: armored period is not positive")
	}
	env, err := r.Bytes32()
	if err != nil {
		return Armored{}, fmt.Errorf("wire: armored envelope: %w", err)
	}
	if err := r.Done(); err != nil {
		return Armored{}, err
	}
	return Armored{
		Round:    round,
		Period:   time.Duration(int64(periodNs)),
		Genesis:  time.Unix(0, int64(genesisNs)).UTC(),
		Envelope: append([]byte(nil), env...),
	}, nil
}

// u64 reads a big-endian uint64 (armor header fields only; wire
// structures keep the 16/32-bit length discipline).
func (r *Reader) u64() (uint64, error) {
	b, err := r.Take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// unarmor strips the begin/end lines and decodes the base64 body. It
// tolerates surrounding whitespace and arbitrary line wrapping inside
// the body but rejects anything before BEGIN or after END.
func unarmor(data []byte) ([]byte, error) {
	text := bytes.TrimSpace(data)
	if !bytes.HasPrefix(text, []byte(armorBegin)) {
		return nil, ErrNotArmored
	}
	text = text[len(armorBegin):]
	endIdx := bytes.Index(text, []byte(armorEnd))
	if endIdx < 0 {
		return nil, fmt.Errorf("%w: missing end marker", ErrNotArmored)
	}
	if rest := bytes.TrimSpace(text[endIdx+len(armorEnd):]); len(rest) != 0 {
		return nil, fmt.Errorf("%w after armor end marker", ErrTrailing)
	}
	b64 := make([]byte, 0, endIdx)
	for _, ch := range text[:endIdx] {
		switch ch {
		case ' ', '\t', '\r', '\n':
		default:
			b64 = append(b64, ch)
		}
	}
	body, err := base64.StdEncoding.DecodeString(string(b64))
	if err != nil {
		return nil, fmt.Errorf("wire: armored body: %w", err)
	}
	return body, nil
}
