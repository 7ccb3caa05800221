package main

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs in shares its cores: for minutes at a
// time every workload, its CPU time included, runs up to 1.6× slower
// (sizing: ten back-to-back runs of message-bls12381 read op p50 17.6,
// 22.9, 22.7, 25.8, 26.8, 28.0, 24.7, 17.1, 17.0, 17.6 ms, and the
// other three workloads moved with it). Longer runs and medians do not
// remove a shift that outlasts the run, so the end-to-end timings are
// reported at a reference machine speed: a calibrator runs a fixed burst
// of integer multiply-add work — none of the repository's code — every
// 10 ms beside the workload (1 % of one core), and each window's timings
// are divided by that window's slowdown, the median burst time over
// burstNominal. Changes to the repository cannot move the burst, so they
// show in full; the raw figures and the slowdown are printed as diag.*.

const (
	burstIters   = 2100
	burstNominal = 100 * time.Microsecond // one burst on the quiet reference sandbox
	// burstSlope is how the workloads' timings follow the burst's: their
	// log-log slopes against it, measured in place, are 0.74–0.90 (the
	// burst is all multiplier, an operation also hashes, copies,
	// allocates and waits), so a timing is divided by slowdown^burstSlope.
	burstSlope = 0.8
)

var burstSink atomic.Uint64 // keeps the compiler from dropping the burst

// burst multiplies two six-limb integers, schoolbook with carry chains,
// burstIters times: the instruction mix and the instruction-level
// parallelism of the Montgomery arithmetic the workloads spend their
// time in, over words that stay in registers or L1.
func burst() {
	x := [6]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0x2545f4914f6cdd1d, 0xd6e8feb86659fd93, 0xa0761d6478bd642f}
	y := x
	var z [12]uint64
	for n := 0; n < burstIters; n++ {
		for i := 0; i < 6; i++ {
			var carry uint64
			for j := 0; j < 6; j++ {
				hi, lo := bits.Mul64(x[i], y[j])
				lo, c := bits.Add64(lo, z[i+j], 0)
				hi += c
				lo, c = bits.Add64(lo, carry, 0)
				z[i+j], carry = lo, hi+c
			}
			z[i+6] = carry
		}
		y[n%6] ^= z[n%12]
	}
	burstSink.Add(z[0] ^ z[11])
}

// calibrator holds the bursts of one run. The goroutines that do the
// workload's work run them inline — between operations, around a
// set-up — so a burst sees the core, hot, that the work just ran on; a
// burst on a goroutine of its own mostly lands on the idle core and
// reads a different machine.
type calibrator struct {
	t    *tracer
	mu   sync.Mutex
	at   []int64 // when each burst started, on the tracer's clock
	took []int64 // how long it ran, ns
}

// sample runs n bursts on the calling goroutine.
func (c *calibrator) sample(n int) {
	for i := 0; i < n; i++ {
		start := c.t.now()
		burst()
		took := c.t.now() - start
		c.mu.Lock()
		c.at, c.took = append(c.at, start), append(c.took, took)
		c.mu.Unlock()
	}
}

// slowdown is how much slower than the reference the machine ran over
// [from, to): the median burst there over burstNominal, or 1 when no
// burst fell in the interval.
func (c *calibrator) slowdown(from, to int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var took []float64
	for i, at := range c.at {
		if at >= from && at < to {
			took = append(took, float64(c.took[i]))
		}
	}
	if len(took) == 0 {
		return 1
	}
	return median(took) / float64(burstNominal)
}
