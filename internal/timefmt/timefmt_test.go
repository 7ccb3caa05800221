package timefmt

import (
	"testing"
	"time"
)

func TestNewScheduleValidation(t *testing.T) {
	valid := []time.Duration{time.Second, time.Minute, time.Hour, 24 * time.Hour, 500 * time.Millisecond, 90 * time.Second}
	for _, g := range valid {
		if _, err := NewSchedule(g); err != nil {
			t.Errorf("NewSchedule(%v): %v", g, err)
		}
	}
	invalid := []time.Duration{0, -time.Second, 7 * time.Hour, 25 * time.Hour, 7 * time.Second}
	for _, g := range invalid {
		if _, err := NewSchedule(g); err == nil {
			t.Errorf("NewSchedule(%v) must fail", g)
		}
	}
}

func TestLabelRoundTrip(t *testing.T) {
	s := MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 34, 56, 789, time.UTC)
	label := s.Label(now)
	if label != "2026-07-05T12:34:00Z" {
		t.Fatalf("Label = %q", label)
	}
	start, err := s.ParseLabel(label)
	if err != nil {
		t.Fatalf("ParseLabel: %v", err)
	}
	if !start.Equal(time.Date(2026, 7, 5, 12, 34, 0, 0, time.UTC)) {
		t.Fatalf("ParseLabel start = %v", start)
	}
}

func TestIndexStartInverse(t *testing.T) {
	s := MustSchedule(time.Hour)
	for _, tm := range []time.Time{
		time.Unix(0, 0),
		time.Date(2026, 7, 5, 23, 59, 59, 999999999, time.UTC),
		time.Date(1969, 12, 31, 11, 0, 0, 0, time.UTC), // pre-epoch
	} {
		i := s.Index(tm)
		st := s.Start(i)
		if st.After(tm) {
			t.Fatalf("Start(Index(%v)) = %v is after input", tm, st)
		}
		if !st.Add(s.Granularity).After(tm) {
			t.Fatalf("%v is not inside epoch starting %v", tm, st)
		}
		if s.Index(st) != i {
			t.Fatalf("Index(Start(%d)) = %d", i, s.Index(st))
		}
	}
}

func TestPreEpochIndexing(t *testing.T) {
	s := MustSchedule(time.Hour)
	before := time.Date(1969, 12, 31, 23, 30, 0, 0, time.UTC)
	if idx := s.Index(before); idx != -1 {
		t.Fatalf("Index(23:30 Dec 31 1969) = %d, want -1", idx)
	}
}

func TestNextIsStrictlyFuture(t *testing.T) {
	s := MustSchedule(time.Minute)
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC) // exactly on a boundary
	next := s.Next(now)
	start, err := s.ParseLabel(next)
	if err != nil {
		t.Fatal(err)
	}
	if !start.After(now) {
		t.Fatalf("Next(%v) = %v is not in the future", now, start)
	}
}

func TestParseLabelRejectsOffGrid(t *testing.T) {
	s := MustSchedule(time.Minute)
	cases := []string{
		"2026-07-05T12:34:30Z",     // not on minute grid
		"2026-07-05T12:34:00.5Z",   // sub-second
		"not a time",               //
		"2026-07-05T12:34:00+0200", // bad offset syntax
	}
	for _, c := range cases {
		if _, err := s.ParseLabel(c); err == nil {
			t.Errorf("ParseLabel(%q) must fail", c)
		}
	}
}

func TestParseLabelNormalisesZone(t *testing.T) {
	s := MustSchedule(time.Hour)
	// A non-UTC rendering of an on-grid instant is NOT canonical and must
	// be rejected — there is exactly one label per epoch.
	if _, err := s.ParseLabel("2026-07-05T14:00:00+02:00"); err == nil {
		t.Fatal("non-UTC label must be rejected as non-canonical")
	}
}

func TestSubSecondLabels(t *testing.T) {
	s := MustSchedule(250 * time.Millisecond)
	tm := time.Date(2026, 7, 5, 12, 0, 0, 600_000_000, time.UTC)
	label := s.Label(tm)
	start, err := s.ParseLabel(label)
	if err != nil {
		t.Fatalf("ParseLabel(%q): %v", label, err)
	}
	if start.Nanosecond() != 500_000_000 {
		t.Fatalf("epoch start = %v, want .5s", start)
	}
}

func TestLabelsBetween(t *testing.T) {
	s := MustSchedule(time.Minute)
	from := time.Date(2026, 7, 5, 12, 0, 30, 0, time.UTC)
	to := time.Date(2026, 7, 5, 12, 4, 0, 0, time.UTC)
	got := s.LabelsBetween(from, to, 0)
	want := []string{
		"2026-07-05T12:01:00Z",
		"2026-07-05T12:02:00Z",
		"2026-07-05T12:03:00Z",
	}
	if len(got) != len(want) {
		t.Fatalf("LabelsBetween = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LabelsBetween[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// Inclusive start when exactly on a boundary.
	exact := s.LabelsBetween(s.Start(100), s.Start(102), 0)
	if len(exact) != 2 || exact[0] != s.LabelAt(100) {
		t.Fatalf("boundary handling: %v", exact)
	}
	// Limit applies.
	if got := s.LabelsBetween(from, to, 1); len(got) != 1 {
		t.Fatalf("limit ignored: %v", got)
	}
	// Empty range.
	if got := s.LabelsBetween(to, from, 0); got != nil {
		t.Fatalf("reversed range must be empty: %v", got)
	}
}

func TestLabelsAreSortable(t *testing.T) {
	// On a whole-second schedule the string order of canonical labels is
	// chronological, and Compare agrees with it.
	s := MustSchedule(time.Hour)
	prev := s.LabelAt(1000)
	for i := int64(1001); i < 1100; i++ {
		cur := s.LabelAt(i)
		if !(prev < cur) || Compare(prev, cur) != -1 || Compare(cur, prev) != 1 {
			t.Fatalf("labels out of order: %q then %q", prev, cur)
		}
		prev = cur
	}
}

// TestCompareOrdersByInstant: Compare follows the instants where string
// order does not (sub-second labels), breaks ties between spellings of
// one instant by string, and puts unparseable labels last.
func TestCompareOrdersByInstant(t *testing.T) {
	s := MustSchedule(500 * time.Millisecond)
	for i := int64(3_000_000_000); i < 3_000_000_040; i++ {
		a, b := s.LabelAt(i), s.LabelAt(i+1)
		if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
			t.Fatalf("Compare(%q, %q) = %d, want -1", a, b, Compare(a, b))
		}
	}
	if whole, half := "2026-07-05T12:00:23Z", "2026-07-05T12:00:23.5Z"; !(half < whole) || Compare(whole, half) != -1 {
		t.Fatalf("%q must order before %q by instant, though not as a string", whole, half)
	}
	for _, c := range []struct {
		a, b string
		want int
	}{
		{"2026-07-05T12:00:23Z", "2026-07-05T14:00:23+02:00", -1}, // one instant: by string
		{"2026-07-05T12:00:24Z", "2026-07-05T14:00:23+02:00", 1},
		{"2026-07-05T12:00:23Z", "garbage", -1}, // unparseable last
		{"garbage", "2026-07-05T12:00:23Z", 1},
		{"garbage", "junk", -1}, // among themselves by string
		{"", "", 0},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
