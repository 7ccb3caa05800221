package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"timedrelease/internal/obs"
)

const (
	windows      = 5 // measured windows per run
	setupRepeats = 3 // set-ups per run; setup_s is their median
	setupBursts  = 8 // calibration bursts before and after each set-up
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // measured interval, split into `windows` windows
	warmup   time.Duration
	trace    bool
	workDir  string // file-backed archives and ledgers live here
	// scale divides the pre-published history of every workload; the
	// smoke tests shrink the set-up with it, runs that count use 1.
	scale int
	// wrapHandler, when set, wraps the origin's handler: the negative
	// test serves tampered updates through it.
	wrapHandler func(http.Handler) http.Handler
}

// metric is one reported number; N is how many samples it reduces.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one run's outcome.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Diag are the run's diagnostics that are no metric of
	// BENCHMARK.json: phase medians, derived rates, the per-window
	// rates and their spread.
	Diag   map[string]metric `json:"diag"`
	Errors []string          `json:"errors,omitempty"`

	mu    sync.Mutex
	spans []span
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) diag(name string, v float64, unit string, n int) {
	r.Diag[name] = metric{Value: v, Unit: unit, N: n}
}

// invalid records a failed correctness or validity guard.
func (r *result) invalid(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// meter brackets the measured interval [from, to) on the tracer's
// clock with the process counters.
type meter struct {
	from, to int64
	mem      [2]runtime.MemStats
	// cpuAt is the process's CPU clock at every window boundary.
	cpuAt []float64

	measuring atomic.Bool
	// generatorNS is CPU the open-loop generator burnt spinning up to
	// its due instants: the benchmark's, not the system's.
	generatorNS int64
	// What the replays of a traced run cost between from and to, so
	// the runtime.* metrics can leave it out.
	replayBytes uint64
	replayGCs   uint32
	replayNS    int64
}

// measure brackets the next d of the run, which the workload's own
// goroutines fill with operations.
func (m *meter) measure(t *tracer, d time.Duration) {
	start := time.Now()
	runtime.ReadMemStats(&m.mem[0])
	m.cpuAt = append(m.cpuAt, cpuSeconds())
	m.from = t.now()
	m.measuring.Store(true)
	for w := 1; w <= windows; w++ {
		time.Sleep(time.Until(start.Add(d * time.Duration(w) / windows)))
		m.cpuAt = append(m.cpuAt, cpuSeconds())
	}
	m.measuring.Store(false)
	m.to = t.now()
	runtime.ReadMemStats(&m.mem[1])
}

// counters sums the obs counters of several registries by name. The
// workloads read them when a run starts and when it ends: between the
// two only the run's operations touch the instrumented schemes, clients
// and servers (replays use their own), so the difference divided by the
// operations run, warm-up included, is an exact per-operation count.
func counters(regs ...*obs.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, r := range regs {
		for name, v := range r.Snapshot().Counters {
			out[name] += v
		}
	}
	return out
}

// instance is one set-up workload.
type instance interface {
	// run drives the workload through warm-up and the measured
	// interval, recording every operation in t.
	run(cfg config, t *tracer, res *result) (*meter, error)
	// report adds the workload's own per-layer metrics and guards.
	report(cfg config, st traceStats, m *meter, res *result)
	close()
}

// workloadDef names a workload and how to set it up. rate, when set, is
// the workload's own rate metric: perOp (epochs, redemptions) × ops_per_s.
type workloadDef struct {
	name  string
	rate  string
	perOp float64
	// open marks the open loop: its rate is the generator's, not the
	// machine's, and is reported as measured.
	open  bool
	setup func(cfg config, t *tracer, rng *rand.Rand) (instance, error)
}

var workloadDefs = []workloadDef{
	{"message-bls12381", "", 1, false, setupMessage},
	{"coldstart-ss512", "epochs_per_s", coldstartRun, false, setupColdstart},
	{"broadcast-test160", "", 1, true, setupBroadcast},
	{"tokens-bls12381", "redeem_per_s", tokenBatch, false, setupTokens},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// closedLoop drives `clients` goroutines that each start their next
// operation when the previous one completes.
type closedLoop struct {
	clients int
	// op performs one operation as client c, recording its spans
	// through o. On a traced run it returns the replay of the layer
	// calls the operation made, which the driver runs outside the
	// operation's span.
	op func(c int, o *opCtx) (replay func(), err error)
}

func (cl closedLoop) run(cfg config, t *tracer, res *result) (*meter, error) {
	m := &meter{}
	// On a traced run replays hold gate exclusively, so that no
	// client's operation shares the two cores with another client's
	// replay.
	var gate sync.RWMutex
	deadline := time.Now().Add(cfg.warmup + cfg.measure)
	var wg sync.WaitGroup
	for c := 0; c < cl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				gate.RLock()
				o := t.beginOp(c)
				replay, err := cl.op(c, o)
				o.end(err != nil)
				gate.RUnlock()
				// More bursts after a long operation: every window needs
				// enough of them for a median.
				t.cal.sample(1 + min(int((t.now()-o.start)/int64(50*time.Millisecond)), 4))
				if err != nil {
					res.invalid("client %d: %v", c, err)
					continue
				}
				if replay != nil {
					gate.Lock()
					m.replay(t, replay)
					gate.Unlock()
				}
			}
		}(c)
	}
	time.Sleep(cfg.warmup)
	m.measure(t, time.Until(deadline))
	wg.Wait()
	return m, nil
}

// replay runs one operation's replays and books what they cost.
func (m *meter) replay(t *tracer, fn func()) {
	if !m.measuring.Load() {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := t.now()
	fn()
	m.replayNS += t.now() - start
	runtime.ReadMemStats(&after)
	m.replayBytes += after.TotalAlloc - before.TotalAlloc
	m.replayGCs += after.NumGC - before.NumGC
}

// runWorkload sets the workload up (setupRepeats times, keeping the
// last), runs it and reduces its spans to the run's metrics.
func runWorkload(cfg config) (*result, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	t := newTracer(cfg.trace)
	cal := t.cal
	res := &result{Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Correct: true,
		Metrics: make(map[string]metric), Diag: make(map[string]metric)}

	var inst instance
	var setups, rawSetups []float64
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		cal.sample(setupBursts)
		start := t.now()
		var err error
		// Every set-up draws from the same seed: the same keys and inputs.
		inst, err = def.setup(cfg, t, rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		end := t.now()
		cal.sample(setupBursts)
		rawSetups = append(rawSetups, float64(end-start)/1e9)
		slow := cal.slowdown(start-int64(5*time.Millisecond), t.now())
		setups = append(setups, float64(end-start)/1e9/math.Pow(slow, burstSlope))
	}
	defer inst.close()

	m, err := inst.run(cfg, t, res)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	res.spans = t.spans
	t.mu.Unlock()
	st := analyze(res.spans, m.from, m.to)
	res.Attempted = len(st.ops) + st.failed
	res.Failed = st.failed
	if len(st.ops) == 0 {
		return nil, fmt.Errorf("no operation succeeded in the measured interval: %v", res.Errors)
	}
	if res.Failed > 0 {
		res.invalid("%d of %d operations failed", res.Failed, res.Attempted)
	}

	// Rates and CPU are taken per window, as measured and at reference
	// machine speed (calibrate.go), and reduced to the median window;
	// percentiles are taken over all samples of the interval, each at the
	// speed of the window it started in.
	win := (m.to - m.from) / windows
	rates := windowRates(st.ops, m.from, win, windows)
	opsBy := byWindow(st.ops, m.from, win, windows)
	var done float64 // operations completed inside the interval, fractions included
	cpus := make([]float64, windows)
	speed := make([]float64, windows) // what a timing of the window is divided by
	for w := range rates {
		inWindow := rates[w] * float64(win) / 1e9
		done += inWindow
		if inWindow > 0 {
			cpus[w] = ((m.cpuAt[w+1]-m.cpuAt[w])*1000 - float64(m.generatorNS)/1e6/windows) / inWindow
		}
		from := m.from + int64(w)*win
		slow := cal.slowdown(from, from+win)
		speed[w] = math.Pow(slow, burstSlope)
		res.diag(fmt.Sprintf("window%d_ops_per_s", w+1), rates[w], "1/s", 1)
		res.diag(fmt.Sprintf("window%d_op_p50_ms", w+1), median(opsBy[w]), "ms", len(opsBy[w]))
		res.diag(fmt.Sprintf("window%d_slowdown", w+1), slow, "ratio", 1)
	}
	res.diag("window_spread", spread(rates), "ratio", windows)
	res.diag("machine_slowdown", cal.slowdown(m.from, m.to), "ratio", 1)
	rawOps := pooled(opsBy, nil)
	res.diag("raw_op_p50_ms", median(rawOps), "ms", len(rawOps))

	if cfg.trace {
		// Per-layer values are as measured; so is the operation they
		// decompose.
		res.set("trace.op_p50_ms", median(rawOps), "ms", len(rawOps))
		res.set("trace.unattributed_share", median(st.unattributed), "ratio", len(st.unattributed))
		for name, d := range st.durMS {
			if name != "op" {
				res.set(name+"_ms", median(d), "ms", len(d))
			}
		}
		// The runtime's share of an operation, replays left out.
		allocated := float64(m.mem[1].TotalAlloc-m.mem[0].TotalAlloc) - float64(m.replayBytes)
		res.set("runtime.alloc_kb_per_op", allocated/1024/done, "kB", len(st.ops))
		gcs := float64(m.mem[1].NumGC-m.mem[0].NumGC) - float64(m.replayGCs)
		res.set("runtime.gc_cycles_per_s", gcs/(float64(m.to-m.from-m.replayNS)/1e9), "1/s", int(gcs))
	} else {
		refOps := pooled(opsBy, speed)
		res.set("setup_s", median(setups), "s", len(setups))
		res.set("peak_rss_mb", peakRSSMB(), "MB", 1)
		res.set("op_p50_ms", median(refOps), "ms", len(refOps))
		res.set("op_p90_ms", percentile(refOps, 0.9), "ms", len(refOps))
		// The open loop's rate is the generator's, not the machine's: as
		// measured. A closed loop's is taken to reference speed window by
		// window.
		opsPerS := median(rates)
		if !def.open {
			ref := make([]float64, windows)
			for w, r := range rates {
				ref[w] = r * speed[w]
			}
			opsPerS = median(ref)
		}
		res.set("ops_per_s", opsPerS, "1/s", windows)
		res.diag("raw_setup_s", median(rawSetups), "s", len(rawSetups))
		res.diag("raw_op_p90_ms", percentile(rawOps, 0.9), "ms", len(rawOps))
		res.diag("raw_ops_per_s", median(rates), "1/s", windows)
		// User+system CPU of the process — server, clients and runtime
		// together — per completed operation, the generator's spin left
		// out. No bounded metric: the open loop is nine tenths idle and
		// its CPU is mostly wake-ups, which the sandbox bills erratically.
		res.diag("raw_cpu_ms_per_op", median(cpus), "ms", len(st.ops))
		// What each party waits on: the phases' medians. The ones the
		// catalogue lists for this workload are metrics, the rest end up
		// diagnostics (finish).
		for name, ivs := range st.phases {
			by := byWindow(ivs, m.from, win, windows)
			name = strings.TrimPrefix(name, "op.") + "_p50_ms"
			res.set(name, median(pooled(by, speed)), "ms", len(ivs))
			res.diag("raw_"+name, median(pooled(by, nil)), "ms", len(ivs))
		}
		if def.rate != "" {
			res.set(def.rate, def.perOp*opsPerS, "1/s", windows)
			res.diag("raw_"+def.rate, def.perOp*median(rates), "1/s", windows)
		}
	}
	inst.report(cfg, st, m, res)
	return res, nil
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(rest, "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the user+system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
