// Package timefmt defines the canonical absolute-time labels the time
// server signs. The paper requires "a precise absolute release time ...
// down to whatever granularity is needed" (§3); a Schedule carves the
// timeline into fixed-width epochs and gives each epoch boundary a
// canonical string label (RFC 3339, UTC) that sender, receiver and
// server all derive independently — no interaction needed to agree on
// what "2026-07-05T12:00:00Z" means, which is exactly the GPS analogy of
// the paper's model.
package timefmt

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Schedule is an epoch grid: labels are issued every Granularity,
// aligned to the Unix epoch in UTC.
type Schedule struct {
	Granularity time.Duration
}

// NewSchedule returns a schedule with the given epoch width. The width
// must be positive and divide evenly into the day (so labels align with
// human-readable boundaries and any two parties compute identical
// grids).
func NewSchedule(granularity time.Duration) (Schedule, error) {
	if granularity <= 0 {
		return Schedule{}, errors.New("timefmt: granularity must be positive")
	}
	if granularity > 24*time.Hour {
		return Schedule{}, errors.New("timefmt: granularity must not exceed 24h")
	}
	if (24*time.Hour)%granularity != 0 {
		return Schedule{}, fmt.Errorf("timefmt: granularity %v does not divide 24h", granularity)
	}
	return Schedule{Granularity: granularity}, nil
}

// MustSchedule is NewSchedule for known-good constants.
func MustSchedule(granularity time.Duration) Schedule {
	s, err := NewSchedule(granularity)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the epoch number containing t (epochs count from the
// Unix epoch; times before it give negative indexes).
func (s Schedule) Index(t time.Time) int64 {
	ns := t.UnixNano()
	g := int64(s.Granularity)
	idx := ns / g
	if ns%g < 0 {
		idx--
	}
	return idx
}

// Start returns the UTC start instant of epoch i.
func (s Schedule) Start(i int64) time.Time {
	return time.Unix(0, i*int64(s.Granularity)).UTC()
}

// Label returns the canonical label of the epoch containing t.
func (s Schedule) Label(t time.Time) string {
	return s.LabelAt(s.Index(t))
}

// LabelAt returns the canonical label of epoch i.
func (s Schedule) LabelAt(i int64) string {
	st := s.Start(i)
	if s.Granularity < time.Second {
		return st.Format(time.RFC3339Nano)
	}
	return st.Format(time.RFC3339)
}

// Next returns the label of the epoch after the one containing t — the
// earliest release label still in the future at time t.
func (s Schedule) Next(t time.Time) string {
	return s.LabelAt(s.Index(t) + 1)
}

// ParseLabel parses a canonical label back into its epoch start. It
// rejects strings that are not exactly on the schedule's grid, so a
// label uniquely identifies an epoch.
func (s Schedule) ParseLabel(label string) (time.Time, error) {
	t, err := time.Parse(time.RFC3339Nano, label)
	if err != nil {
		return time.Time{}, fmt.Errorf("timefmt: bad label %q: %w", label, err)
	}
	idx := s.Index(t)
	if !s.Start(idx).Equal(t) {
		return time.Time{}, fmt.Errorf("timefmt: label %q is not on the %v grid", label, s.Granularity)
	}
	if s.LabelAt(idx) != label {
		return time.Time{}, fmt.Errorf("timefmt: label %q is not canonical (want %q)", label, s.LabelAt(idx))
	}
	return t.UTC(), nil
}

// Compare orders two labels by the instant each names, earliest first,
// returning −1, 0 or +1 like strings.Compare; it needs no schedule.
// Labels naming the same instant compare as strings, and labels that do
// not parse as RFC 3339 come after every label that does, among
// themselves as strings. Everything that orders labels — the archive
// index, range bounds, catch-up pages, stream replay — orders by it:
// canonical labels do not sort as strings once fractional seconds
// appear ("…:23.5Z" < "…:23Z", because '.' < 'Z').
func Compare(a, b string) int {
	ta, errA := time.Parse(time.RFC3339Nano, a)
	tb, errB := time.Parse(time.RFC3339Nano, b)
	switch {
	case errA != nil || errB != nil:
		if (errA == nil) != (errB == nil) {
			if errA == nil {
				return -1
			}
			return 1
		}
	default:
		if c := ta.Compare(tb); c != 0 {
			return c
		}
	}
	return strings.Compare(a, b)
}

// LabelsBetween returns the labels of all epochs whose start lies in
// [from, to) in chronological order. It caps the result at limit labels
// (0 means no cap) to protect callers from accidental huge ranges.
func (s Schedule) LabelsBetween(from, to time.Time, limit int) []string {
	if !from.Before(to) {
		return nil
	}
	start := s.Index(from)
	if !s.Start(start).Equal(from.UTC()) {
		start++ // first epoch boundary at or after from
	}
	var out []string
	for i := start; s.Start(i).Before(to); i++ {
		if limit > 0 && len(out) >= limit {
			break
		}
		out = append(out, s.LabelAt(i))
	}
	return out
}
