package threshold

import (
	"errors"
	"fmt"

	"timedrelease/internal/backend"
	"timedrelease/internal/params"
	"timedrelease/internal/wire"
)

// Wire encoding for partial updates (index ‖ label-len ‖ label ‖ point),
// used when shard operators exchange partials out of band (e.g. the
// trethreshold CLI), on internal/wire's strict cursor: truncation,
// trailing bytes and non-subgroup points are rejected.

// MarshalPartial encodes a partial update.
func MarshalPartial(set *params.Set, pu PartialUpdate) []byte {
	out := wire.AppendU16(nil, pu.Index)
	out = wire.AppendBytes16(out, []byte(pu.Label))
	return set.B.AppendPoint(out, backend.G2, pu.Point)
}

// UnmarshalPartial decodes a partial update. Verification against the
// shard's public key is separate (VerifyPartial).
func UnmarshalPartial(set *params.Set, data []byte) (PartialUpdate, error) {
	r := wire.NewReader(set, data)
	idx, err := r.U16()
	if err != nil {
		return PartialUpdate{}, fmt.Errorf("threshold: partial index: %w", err)
	}
	if idx == 0 {
		return PartialUpdate{}, errors.New("threshold: partial index must be >= 1")
	}
	label, err := r.Bytes16()
	if err != nil {
		return PartialUpdate{}, fmt.Errorf("threshold: partial label: %w", err)
	}
	pt, err := r.Point(backend.G2)
	if err != nil {
		return PartialUpdate{}, fmt.Errorf("threshold: partial point: %w", err)
	}
	if err := r.Done(); err != nil {
		return PartialUpdate{}, err
	}
	return PartialUpdate{Index: idx, Label: string(label), Point: pt}, nil
}
