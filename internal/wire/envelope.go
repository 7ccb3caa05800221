package wire

import (
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
)

// Kind identifies which encryption mode produced an envelope's payload.
type Kind byte

// Envelope payload kinds. Values are wire-stable; do not renumber.
const (
	KindBasic  Kind = 1 // core.Ciphertext (CPA, paper §5.1 verbatim)
	KindCCA    Kind = 2 // core.CCACiphertext (Fujisaki–Okamoto)
	KindREACT  Kind = 3 // core.REACTCiphertext
	KindHybrid Kind = 4 // core.HybridCiphertext (AES-CTR+HMAC DEM)
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindBasic:
		return "basic"
	case KindCCA:
		return "cca"
	case KindREACT:
		return "react"
	case KindHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Envelope is the application-level message a sender transmits: a
// version, the payload kind, an OPTIONAL release label, and the
// ciphertext bytes. The core ciphertext deliberately omits the label
// (release-time privacy, paper §3); senders who are willing to reveal it
// to the receiver put it here, and senders who are not leave it empty
// and convey the label out of band.
type Envelope struct {
	Kind    Kind
	Label   string
	Payload []byte
}

// MarshalEnvelope encodes an envelope.
func (c *Codec) MarshalEnvelope(e Envelope) []byte {
	out := []byte{Version, byte(e.Kind)}
	out = AppendBytes16(out, []byte(e.Label))
	return AppendBytes32(out, e.Payload)
}

// UnmarshalEnvelope decodes an envelope, rejecting unknown versions and
// kinds.
func (c *Codec) UnmarshalEnvelope(data []byte) (Envelope, error) {
	r := NewReader(c.Set, data)
	hdr, err := r.Take(2)
	if err != nil {
		return Envelope{}, err
	}
	if hdr[0] != Version {
		return Envelope{}, fmt.Errorf("wire: unsupported version %d", hdr[0])
	}
	kind := Kind(hdr[1])
	switch kind {
	case KindBasic, KindCCA, KindREACT, KindHybrid:
	default:
		return Envelope{}, fmt.Errorf("wire: unknown payload kind %d", hdr[1])
	}
	label, err := r.Bytes16()
	if err != nil {
		return Envelope{}, fmt.Errorf("wire: envelope label: %w", err)
	}
	payload, err := r.Bytes32()
	if err != nil {
		return Envelope{}, fmt.Errorf("wire: envelope payload: %w", err)
	}
	if err := r.Done(); err != nil {
		return Envelope{}, err
	}
	return Envelope{Kind: kind, Label: string(label), Payload: payload}, nil
}

// --- ciphertext encodings --------------------------------------------------

// MarshalCiphertext encodes a basic ciphertext ⟨U, V⟩.
func (c *Codec) MarshalCiphertext(ct *core.Ciphertext) []byte {
	out := c.Set.B.AppendPoint(nil, backend.G1, ct.U)
	return AppendBytes32(out, ct.V)
}

// UnmarshalCiphertext decodes a basic ciphertext.
func (c *Codec) UnmarshalCiphertext(data []byte) (*core.Ciphertext, error) {
	r := NewReader(c.Set, data)
	u, err := r.Point(backend.G1)
	if err != nil {
		return nil, fmt.Errorf("wire: ciphertext U: %w", err)
	}
	v, err := r.Bytes32()
	if err != nil {
		return nil, fmt.Errorf("wire: ciphertext V: %w", err)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &core.Ciphertext{U: u, V: v}, nil
}

// MarshalCCACiphertext encodes an FO ciphertext ⟨U, W, V⟩.
func (c *Codec) MarshalCCACiphertext(ct *core.CCACiphertext) []byte {
	out := c.Set.B.AppendPoint(nil, backend.G1, ct.U)
	out = AppendBytes16(out, ct.W)
	return AppendBytes32(out, ct.V)
}

// UnmarshalCCACiphertext decodes an FO ciphertext.
func (c *Codec) UnmarshalCCACiphertext(data []byte) (*core.CCACiphertext, error) {
	r := NewReader(c.Set, data)
	u, err := r.Point(backend.G1)
	if err != nil {
		return nil, fmt.Errorf("wire: cca U: %w", err)
	}
	w, err := r.Bytes16()
	if err != nil {
		return nil, fmt.Errorf("wire: cca W: %w", err)
	}
	v, err := r.Bytes32()
	if err != nil {
		return nil, fmt.Errorf("wire: cca V: %w", err)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &core.CCACiphertext{U: u, W: w, V: v}, nil
}

// MarshalREACTCiphertext encodes a REACT ciphertext ⟨U, W, V, Tag⟩.
func (c *Codec) MarshalREACTCiphertext(ct *core.REACTCiphertext) []byte {
	out := c.Set.B.AppendPoint(nil, backend.G1, ct.U)
	out = AppendBytes16(out, ct.W)
	out = AppendBytes32(out, ct.V)
	return AppendBytes16(out, ct.Tag)
}

// UnmarshalREACTCiphertext decodes a REACT ciphertext.
func (c *Codec) UnmarshalREACTCiphertext(data []byte) (*core.REACTCiphertext, error) {
	r := NewReader(c.Set, data)
	u, err := r.Point(backend.G1)
	if err != nil {
		return nil, fmt.Errorf("wire: react U: %w", err)
	}
	w, err := r.Bytes16()
	if err != nil {
		return nil, fmt.Errorf("wire: react W: %w", err)
	}
	v, err := r.Bytes32()
	if err != nil {
		return nil, fmt.Errorf("wire: react V: %w", err)
	}
	tag, err := r.Bytes16()
	if err != nil {
		return nil, fmt.Errorf("wire: react Tag: %w", err)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &core.REACTCiphertext{U: u, W: w, V: v, Tag: tag}, nil
}

// MarshalHybridCiphertext encodes a hybrid ciphertext ⟨U, Box⟩.
func (c *Codec) MarshalHybridCiphertext(ct *core.HybridCiphertext) []byte {
	out := c.Set.B.AppendPoint(nil, backend.G1, ct.U)
	return AppendBytes32(out, ct.Box)
}

// UnmarshalHybridCiphertext decodes a hybrid ciphertext.
func (c *Codec) UnmarshalHybridCiphertext(data []byte) (*core.HybridCiphertext, error) {
	r := NewReader(c.Set, data)
	u, err := r.Point(backend.G1)
	if err != nil {
		return nil, fmt.Errorf("wire: hybrid U: %w", err)
	}
	box, err := r.Bytes32()
	if err != nil {
		return nil, fmt.Errorf("wire: hybrid Box: %w", err)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &core.HybridCiphertext{U: u, Box: box}, nil
}

// SealBasic wraps a basic ciphertext into an envelope with the given
// (possibly empty) label.
func (c *Codec) SealBasic(label string, ct *core.Ciphertext) []byte {
	return c.MarshalEnvelope(Envelope{Kind: KindBasic, Label: label, Payload: c.MarshalCiphertext(ct)})
}

// SealCCA wraps an FO ciphertext into an envelope.
func (c *Codec) SealCCA(label string, ct *core.CCACiphertext) []byte {
	return c.MarshalEnvelope(Envelope{Kind: KindCCA, Label: label, Payload: c.MarshalCCACiphertext(ct)})
}

// SealREACT wraps a REACT ciphertext into an envelope.
func (c *Codec) SealREACT(label string, ct *core.REACTCiphertext) []byte {
	return c.MarshalEnvelope(Envelope{Kind: KindREACT, Label: label, Payload: c.MarshalREACTCiphertext(ct)})
}

// SealHybrid wraps a hybrid ciphertext into an envelope.
func (c *Codec) SealHybrid(label string, ct *core.HybridCiphertext) []byte {
	return c.MarshalEnvelope(Envelope{Kind: KindHybrid, Label: label, Payload: c.MarshalHybridCiphertext(ct)})
}
