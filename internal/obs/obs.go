// Package obs provides the repository's observability primitives:
// atomic counters, gauges, fixed-bucket latency histograms and a
// structured event logger, all on the standard library alone.
//
// The serving path (internal/timeserver, internal/core,
// internal/parallel) is instrumented against these types so that the
// scalability claims of the paper — one passive broadcast serves every
// user (§3) — can be measured rather than asserted: per-endpoint
// request counts and latencies, archive and verification cache hit
// rates, pairing-operation counts and worker-pool utilisation all end
// up in one JSON snapshot served at /metrics by cmd/treserver; the
// load harnesses (cmd/treload, benchmark/) read the same registries
// in-process.
//
// Every method is safe on a nil receiver and does nothing there, so
// instrumented code needs no "is observability enabled?" branches: an
// uninstrumented Scheme or Client simply carries nil metrics and pays
// one predictable branch per event.
package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
)

// Registry owns a flat namespace of metrics. Metric constructors are
// idempotent: asking twice for the same name returns the same metric,
// so independent components can share a registry without coordination.
// All methods are safe for concurrent use and on a nil receiver (every
// constructor then returns nil, which the metric types tolerate).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is polled at snapshot time —
// for state owned elsewhere (e.g. the parallel pool's live worker
// count). fn must be safe for concurrent use. Re-registering a name
// replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the latency histogram registered under name with
// the default bucket bounds, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith is Histogram with explicit bucket upper bounds in
// nanoseconds (ascending; an implicit +Inf bucket is appended). A nil
// bounds slice selects DefaultLatencyBuckets. Bounds are fixed at
// first registration; later calls ignore the argument.
func (r *Registry) HistogramWith(name string, boundsNS []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(boundsNS)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures a point-in-time copy of every registered metric.
// The copy is internally consistent per metric (each histogram is read
// bucket-by-bucket while observations may continue, so totals can lag
// bucket sums by in-flight observations — never the reverse).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Load()
	}
	for k, fn := range gaugeFuncs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// Reset zeroes every registered metric while keeping registrations
// (and bucket layouts) intact. Polled gauge functions are untouched —
// their state belongs to the component that registered them.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// Handler serves the registry snapshot as indented JSON — the /metrics
// endpoint of cmd/treserver. It is read-only and, like every handler
// on the time server, reveals nothing about individual requesters.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(r.Snapshot().JSON())
	})
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// JSON renders the snapshot with stable key order (encoding/json sorts
// map keys) and trailing newline.
func (s Snapshot) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Only unrepresentable values can fail here, and the snapshot
		// holds nothing but strings and int64s.
		panic("obs: snapshot marshal: " + err.Error())
	}
	return append(out, '\n')
}

// Names returns the sorted metric names of one snapshot section —
// convenience for tests and docs.
func (s Snapshot) Names() []string {
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
