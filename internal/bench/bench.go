// Package bench is the experiment harness: one function per experiment
// in DESIGN.md §3 (E1–E12), each reproducing a quantitative claim of the
// paper as a formatted table. The tables in EXPERIMENTS.md are generated
// by cmd/trebench, which calls RunAll; bench_test.go exposes the same
// workloads as testing.B benchmarks.
package bench

import (
	"fmt"
	"strings"
	"time"

	"timedrelease/internal/params"
)

// Config controls experiment scope.
type Config struct {
	// Preset names the parameter set for full runs (default "SS512", the
	// paper-era size).
	Preset string
	// Quick shrinks sweeps and iteration counts so the whole suite runs
	// in seconds — used by tests; published numbers use Quick=false.
	Quick bool
}

// set resolves the configured parameter set.
func (c Config) set() (*params.Set, error) {
	name := c.Preset
	if name == "" {
		if c.Quick {
			name = "Test160"
		} else {
			name = "SS512"
		}
	}
	return params.Preset(name)
}

// iters scales an iteration count down in Quick mode.
func (c Config) iters(full int) int {
	if c.Quick {
		if full >= 10 {
			return 3
		}
		return 1
	}
	return full
}

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test, quoted or paraphrased
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Add appends a row; cell count must match the header.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("bench: row has %d cells, table %s has %d columns", len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if n := len([]rune(cell)); n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(cell))))
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown (used to
// regenerate EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "*Claim:* %s\n\n", t.Claim)
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(t.Columns, " | "))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(row, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*Note:* %s\n", n)
	}
	return b.String()
}

// timeOp runs f n times and returns the mean duration.
func timeOp(n int, f func()) time.Duration {
	if n < 1 {
		n = 1
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// ms renders a duration in fixed-point milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d.Nanoseconds())/1e6)
}

// bytesHuman renders a byte count compactly.
func bytesHuman(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
