package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/core"
)

// span is one timed interval. Spans of one operation share Op (the id
// of the operation's own span); Parent is the span that caused it. A
// replay span did not run inside its parent's interval: it is the
// benchmark calling, right after the operation and on the operation's
// own inputs, a layer function the parent is documented to call.
// Probe spans (backend.*) are replays with no parent: they size a
// backend primitive on the operation's inputs and take no part in the
// self-time arithmetic.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Op     int32  `json:"op"`
	Client int    `json:"client"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

// tracer collects spans in memory. Every run records the operation
// spans ("op") and their phases ("op.*") — they are the measurement.
// A traced run (layers) also records the layer spans: timed calls into
// internal/*, the HTTP round trips, the handler middleware, the
// archive decorator and the replays.
type tracer struct {
	layers bool
	epoch  time.Time
	nextID atomic.Int32
	// active is the packed (op, span) the archive decorator parents
	// its spans under: the handler middleware or the publisher sets it
	// around the call that reaches the archive.
	active atomic.Int64
	mu     sync.Mutex
	spans  []span
	// cal samples the machine's speed beside the spans (calibrate.go).
	cal *calibrator
}

func newTracer(layers bool) *tracer {
	t := &tracer{layers: layers, epoch: time.Now(), spans: make([]span, 0, 1<<16)}
	t.cal = &calibrator{t: t}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int32 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func pack(op, id int32) int64 { return int64(op)<<32 | int64(uint32(id)) }

func unpack(v int64) (op, id int32) { return int32(v >> 32), int32(uint32(v)) }

// opCtx is one operation in flight on one client.
type opCtx struct {
	t      *tracer
	id     int32
	client int
	start  int64
}

func (t *tracer) beginOp(client int) *opCtx {
	return &opCtx{t: t, id: t.newID(), client: client, start: t.now()}
}

func (o *opCtx) end(failed bool) {
	o.t.add(span{ID: o.id, Op: o.id, Client: o.client, Name: "op", Start: o.start, End: o.t.now(), Failed: failed})
}

func (o *opCtx) traced() bool { return o.t.layers }

// timed runs fn and records it as a span named name under parent.
func (o *opCtx) timed(parent int32, name string, replay bool, fn func(id int32)) int32 {
	id := o.t.newID()
	start := o.t.now()
	fn(id)
	o.t.add(span{ID: id, Parent: parent, Op: o.id, Client: o.client, Name: name, Start: start, End: o.t.now(), Replay: replay})
	return id
}

// phase times one named part of the operation (what one party waits
// on); recorded on every run.
func (o *opCtx) phase(name string, fn func(id int32)) { o.timed(o.id, name, false, fn) }

// layer times a call into one layer, made in place by the operation.
// On an untraced run it only makes the call.
func (o *opCtx) layer(parent int32, name string, fn func()) int32 {
	if !o.t.layers {
		fn()
		return 0
	}
	return o.timed(parent, name, false, func(int32) { fn() })
}

// replay times a layer call repeated after the operation (traced runs
// only).
func (o *opCtx) replay(parent int32, name string, fn func()) int32 {
	return o.timed(parent, name, true, func(int32) { fn() })
}

const (
	spanHeader    = "X-Bench-Span"    // request: "<op>:<parent span>"
	handlerHeader = "X-Bench-Handler" // response: the handler span's id
)

// middleware times every request the handler serves as a
// timeserver.handler span under the span named in the request header.
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent int32
		fmt.Sscanf(r.Header.Get(spanHeader), "%d:%d", &op, &parent)
		id := t.newID()
		w.Header().Set(handlerHeader, fmt.Sprint(id))
		prev := t.active.Swap(pack(op, id))
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		t.active.Store(prev)
		t.add(span{ID: id, Parent: parent, Op: op, Name: "timeserver.handler", Start: start, End: end})
	})
}

// httpSpanName names a round trip after the endpoint it hits.
func httpSpanName(path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/update/"):
		return "timeserver.http_get"
	case path == "/v1/catchup":
		return "timeserver.catchup_http"
	case path == "/v1/tokens/issue":
		return "timeserver.issue_http"
	case path == "/v1/tokens/key":
		return "timeserver.token_key_http"
	}
	return "timeserver.http_other"
}

// tracedTransport times each HTTP round trip (request sent → body
// fully read) of ONE client, including those made inside
// timeserver.Client calls the benchmark cannot see into, and keeps the
// last response for the replays.
type tracedTransport struct {
	t    *tracer
	base http.RoundTripper
	// cur is the packed (op, parent span) of the call in flight.
	cur atomic.Int64

	lastBody    []byte
	lastHandler int32
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	op, parent := unpack(tt.cur.Load())
	id := tt.t.newID()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d:%d", op, id))
	start := tt.t.now()
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	tt.t.add(span{ID: id, Parent: parent, Op: op, Name: httpSpanName(req.URL.Path), Start: start, End: tt.t.now()})
	resp.Body = io.NopCloser(bytes.NewReader(body))
	tt.lastBody, tt.lastHandler = body, 0
	fmt.Sscanf(resp.Header.Get(handlerHeader), "%d", &tt.lastHandler)
	return resp, nil
}

// newHTTPClient returns one client's HTTP client over its own
// connection pool; on a traced run its round trips are timed.
func newHTTPClient(t *tracer) (*http.Client, *tracedTransport) {
	base := &http.Transport{MaxIdleConnsPerHost: 2}
	hc := &http.Client{Timeout: 30 * time.Second, Transport: base}
	if !t.layers {
		return hc, nil
	}
	tt := &tracedTransport{t: t, base: base}
	hc.Transport = tt
	return hc, tt
}

// under marks parent as the span the client's next round trips belong
// to. No-op on an untraced run (tt == nil).
func (tt *tracedTransport) under(o *opCtx, parent int32) {
	if tt != nil {
		tt.cur.Store(pack(o.id, parent))
	}
}

// tracedArchive times Put, Get and Range of the archive the server is
// handed, from outside the archive package.
type tracedArchive struct {
	archive.Archive
	ranger archive.Ranger
	t      *tracer
}

func (a *tracedArchive) timed(name string, fn func()) {
	op, parent := unpack(a.t.active.Load())
	id := a.t.newID()
	start := a.t.now()
	fn()
	a.t.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: a.t.now()})
}

func (a *tracedArchive) Put(u core.KeyUpdate) (err error) {
	a.timed("archive.put", func() { err = a.Archive.Put(u) })
	return err
}

func (a *tracedArchive) Get(label string) (u core.KeyUpdate, ok bool) {
	a.timed("archive.get", func() { u, ok = a.Archive.Get(label) })
	return u, ok
}

func (a *tracedArchive) Range(from, to string, limit int) (res archive.RangeResult, err error) {
	a.timed("archive.range", func() { res, err = a.ranger.Range(from, to, limit) })
	return res, err
}

// traceStats is what the spans of the measured interval reduce to.
type traceStats struct {
	// durMS holds the durations, in milliseconds, of the spans of each
	// name that belong to a measured operation.
	durMS map[string][]float64
	// ops are the measured operations; failed counts those that failed
	// (their durations are in no sample). phases are the measured
	// operations' phase spans by name ("op.seal", …).
	ops    []interval
	phases map[string][]interval
	failed int
	// allOps counts every operation that succeeded, warm-up included.
	allOps int
	// unattributed is, per operation, the share of its duration that no
	// layer span accounts for: the self time of the operation span and
	// of its phase spans.
	unattributed []float64
}

func grouping(name string) bool { return name == "op" || strings.HasPrefix(name, "op.") }

// analyze reduces the spans of the operations that started in
// [from, to). A span's self time is its duration minus the part its
// in-place children cover minus the durations of its replay children.
func analyze(spans []span, from, to int64) traceStats {
	st := traceStats{durMS: make(map[string][]float64), phases: make(map[string][]interval)}
	measured := make(map[int32]bool)
	for _, s := range spans {
		if s.Name == "op" && !s.Failed {
			st.allOps++
		}
		if s.Name != "op" || s.Start < from || s.Start >= to {
			continue
		}
		if s.Failed {
			st.failed++
			continue
		}
		measured[s.ID] = true
		st.ops = append(st.ops, interval{s.Start, s.End})
	}
	children := make(map[int32][]span)
	for _, s := range spans {
		if !measured[s.Op] {
			continue
		}
		st.durMS[s.Name] = append(st.durMS[s.Name], float64(s.End-s.Start)/1e6)
		if strings.HasPrefix(s.Name, "op.") {
			st.phases[s.Name] = append(st.phases[s.Name], interval{s.Start, s.End})
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64) // op → unattributed ns
	for _, s := range spans {
		if !measured[s.Op] || !grouping(s.Name) {
			continue
		}
		var inPlace []interval
		var replayed int64
		for _, c := range children[s.ID] {
			if c.Replay {
				replayed += c.End - c.Start
			} else {
				inPlace = append(inPlace, interval{c.Start, c.End})
			}
		}
		self[s.Op] += s.End - s.Start - unionLen(inPlace, s.Start, s.End) - replayed
	}
	for _, s := range spans {
		if measured[s.ID] && s.End > s.Start {
			st.unattributed = append(st.unattributed, float64(self[s.ID])/float64(s.End-s.Start))
		}
	}
	return st
}
