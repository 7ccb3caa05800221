package main

import (
	"bufio"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/timeserver"
)

const (
	broadcastHistory  = 1024 // epochs already archived, and synced by the relay, when the stream starts
	broadcastRate     = 20   // publishes per second
	broadcastAudience = 256  // parked raw subscribers on the origin
	broadcastInterval = time.Second / broadcastRate
	generatorSpin     = 1500 * time.Microsecond
)

// event is one forward epoch of the broadcast workload.
type event struct {
	label  string
	expect string // base64 wire update every subscriber must receive, byte for byte
	op     int32  // id of the event's operation span
	pub    int32  // id of its publish_call span

	// Nanoseconds on the tracer's clock. due is when the open loop owed
	// the publish; the receive stamps are written by the receivers.
	due, pubStart, pubEnd int64
	relayRecv, edgeRecv   atomic.Int64
	audienceLast          atomic.Int64
	audience              atomic.Int32 // audience members that received it intact
	mismatch              atomic.Int32 // subscribers that received something else
}

// broadcast is the broadcast-test160 workload, the write path: an OPEN
// loop publishing forward epochs at a fixed 20/s through
//
//	origin (file archive, fsync per put) → relay (loopback TCP) → edge client (verifying)
//
// with an audience of 256 parked, non-verifying raw SSE subscribers on
// the origin over in-memory pipes: they are what the hub fans out to.
// An operation is one event, timed from the instant it was DUE to the
// instant the edge client has verified it.
type broadcast struct {
	*origin
	t        *tracer
	relay    *timeserver.Relay
	regs     []*obs.Registry // origin, relay and client registries (traced runs)
	base     map[string]int64
	verifier *core.Scheme // replays the edge's verification
	events   []*event
	byLabel  map[string]int
	conns    []net.Conn
	wg       sync.WaitGroup // receivers
	stop     context.CancelFunc
}

// memListener hands the HTTP server one end of a net.Pipe per Dial: the
// audience costs no sockets and no kernel buffers, only the hub's and
// the SSE handlers' own work.
type memListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *memListener) Dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, errors.New("listener closed")
	}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, errors.New("listener closed")
	}
}

func (l *memListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *memListener) Addr() net.Addr { return memAddr{} }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// subscribe opens a raw /v1/stream subscription on conn, waits until
// the server has parked it (": ready") and then hands every event's
// data line to got, in order, until the connection ends.
func (b *broadcast) subscribe(conn net.Conn, got func(ev *event, ok bool)) error {
	b.conns = append(b.conns, conn)
	if _, err := conn.Write([]byte("GET /v1/stream HTTP/1.1\r\nHost: bench\r\nAccept: text/event-stream\r\n\r\n")); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 512)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/stream: status %d", resp.StatusCode)
	}
	// resp.Body is never closed: closing a chunked body drains it, and
	// this one never ends. Closing conn ends the subscription.
	body := bufio.NewReaderSize(resp.Body, 512)
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return fmt.Errorf("waiting for the stream to go live: %w", err)
		}
		if strings.HasPrefix(line, ": ready") {
			break
		}
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		next := 0
		for next < len(b.events) {
			line, err := body.ReadString('\n')
			if err != nil {
				return // shed, drained or torn down
			}
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				ev := b.events[next]
				got(ev, strings.TrimRight(data, "\r\n") == ev.expect)
				next++
			}
		}
	}()
	return nil
}

func setupBroadcast(cfg config, t *tracer, rng *rand.Rand) (instance, error) {
	o, err := newOrigin(cfg, t, rng, originOpts{preset: "Test160", epochs: broadcastHistory / cfg.scale, decorator: true})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &broadcast{origin: o, t: t, verifier: core.NewScheme(o.set), byLabel: make(map[string]int), stop: cancel}
	fail := func(err error) (instance, error) { b.close(); return nil, err }

	// Every forward epoch the run can reach and the bytes its event
	// must carry, known up front so the receivers check what they get
	// without decoding it.
	n := int((cfg.warmup+cfg.measure)/broadcastInterval) + 1
	for i := 0; i < n; i++ {
		ev := &event{label: o.sched.LabelAt(o.head + 1 + int64(i)), op: t.newID(), pub: t.newID()}
		// Signed here, independently of the server.
		ev.expect = base64.StdEncoding.EncodeToString(o.codec.MarshalKeyUpdate(b.verifier.IssueUpdate(o.key, ev.label)))
		b.events = append(b.events, ev)
		b.byLabel[ev.label] = i
	}
	var creg *obs.Registry
	if t.layers {
		creg = obs.NewRegistry()
		b.regs = []*obs.Registry{o.reg, creg}
	}
	clientOpts := func() []timeserver.ClientOption {
		var opts []timeserver.ClientOption
		if t.layers {
			opts = append(opts, timeserver.WithClientMetrics(creg))
		}
		return opts
	}

	// The audience's door into the origin: the same handler, in memory.
	ml := &memListener{conns: make(chan net.Conn), done: make(chan struct{})}
	mem := &http.Server{Handler: o.handler}
	go mem.Serve(ml)
	o.closers = append(o.closers, func() { mem.Close(); ml.Close() })

	// Relay: ingests from the origin over loopback TCP, serves its own.
	var relayOpts []timeserver.RelayOption
	if t.layers {
		rreg := obs.NewRegistry()
		b.regs = append(b.regs, rreg)
		relayOpts = append(relayOpts, timeserver.RelayWithMetrics(rreg))
	}
	b.relay = timeserver.NewRelay(timeserver.NewClient(o.url, o.set, o.key.Pub, clientOpts()...), o.sched, relayOpts...)
	b.wg.Add(1)
	go func() { defer b.wg.Done(); b.relay.Run(ctx) }()
	rs := httptest.NewServer(b.relay.Handler())
	o.closers = append(o.closers, func() { b.relay.Drain(); rs.Close() })
	if err := waitFor("the relay to converge on the origin", func() bool {
		return b.relay.Ingested() >= int64(len(o.labels)) && o.srv.Subscribers() >= 1
	}); err != nil {
		return fail(err)
	}

	// Edge: a verifying stream client on the relay.
	edge := timeserver.NewClient(rs.URL, o.set, o.key.Pub, clientOpts()...)
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		edge.StreamUpdates(ctx, "", b.edgeGot)
	}()
	// A raw subscriber next to it, for the relay hop alone.
	rc, err := net.Dial("tcp", strings.TrimPrefix(rs.URL, "http://"))
	if err != nil {
		return fail(err)
	}
	err = b.subscribe(rc, func(ev *event, ok bool) {
		ev.relayRecv.Store(t.now())
		if !ok {
			ev.mismatch.Add(1)
		}
	})
	if err != nil {
		return fail(err)
	}
	if err := waitFor("the edge client to park on the relay", func() bool { return b.relay.Subscribers() >= 2 }); err != nil {
		return fail(err)
	}

	for i := 0; i < broadcastAudience; i++ {
		conn, err := ml.Dial()
		if err != nil {
			return fail(err)
		}
		err = b.subscribe(conn, func(ev *event, ok bool) {
			if !ok {
				ev.mismatch.Add(1)
				return
			}
			if ev.audience.Add(1) == broadcastAudience {
				ev.audienceLast.Store(t.now())
			}
		})
		if err != nil {
			return fail(err)
		}
	}
	return b, nil
}

func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// edgeGot is the edge client's callback: the update has been decoded
// and verified against the pinned key.
func (b *broadcast) edgeGot(u core.KeyUpdate) error {
	now := b.t.now()
	i, ok := b.byLabel[u.Label]
	if !ok {
		return nil
	}
	ev := b.events[i]
	ev.edgeRecv.Store(now)
	// The event's calibration burst: the operation has just ended, the
	// core is as hot as the delivery left it, the next event is 47 ms away.
	b.t.cal.sample(1)
	if !b.t.layers {
		return nil
	}
	// The layer calls behind this event, replayed once it has arrived
	// (the next is 50 ms away): the edge's verification, the origin's
	// signing and encoding.
	o := &opCtx{t: b.t, id: ev.op}
	o.replay(ev.op, "core.verify_update", func() { b.verifier.VerifyUpdate(b.key.Pub, u) })
	o.replay(ev.pub, "core.issue_update", func() { b.verifier.IssueUpdate(b.key, u.Label) })
	o.replay(ev.pub, "wire.encode_update", func() { b.codec.MarshalKeyUpdate(u) })
	probeBackend(o, b.set, core.TimeDomain, []byte(u.Label), b.key.Pub.SG, u.Point, b.key.S)
	return nil
}

func (b *broadcast) run(cfg config, t *tracer, res *result) (*meter, error) {
	b.base = counters(b.regs...)
	m := &meter{}
	start := time.Now()
	published := make(chan int, 1)
	go func() {
		n := 0
		for i, ev := range b.events {
			due := start.Add(time.Duration(i) * broadcastInterval)
			// An idle Go process wakes from Sleep up to a millisecond
			// late, a third of this operation: sleep short, spin the rest.
			time.Sleep(time.Until(due) - generatorSpin)
			spinFrom := time.Now()
			for time.Now().Before(due) {
			}
			if m.measuring.Load() {
				m.generatorNS += int64(time.Since(spinFrom))
			}
			ev.due = int64(due.Sub(t.epoch))
			b.advance(b.head + 1 + int64(i))
			t.active.Store(pack(ev.op, ev.pub))
			ev.pubStart = t.now()
			err := b.srv.PublishLabel(ev.label)
			ev.pubEnd = t.now()
			if err != nil {
				res.invalid("publishing %s: %v", ev.label, err)
				break
			}
			n++
		}
		published <- n
	}()
	time.Sleep(cfg.warmup)
	m.measure(t, time.Until(start.Add(cfg.warmup+cfg.measure)))
	n := <-published
	if n == 0 {
		return nil, fmt.Errorf("nothing was published: %v", res.Errors)
	}

	// Let the tail arrive, then turn the event table into spans.
	last := b.events[n-1]
	waitFor("the last event to reach every subscriber", func() bool {
		return last.edgeRecv.Load() != 0 && last.relayRecv.Load() != 0 && last.audience.Load() == broadcastAudience
	})
	for _, ev := range b.events[:n] {
		edge := ev.edgeRecv.Load()
		failed := edge == 0 || ev.relayRecv.Load() == 0 || ev.audience.Load() != broadcastAudience || ev.mismatch.Load() != 0
		if failed {
			edge = t.now()
		}
		t.add(span{ID: ev.op, Op: ev.op, Name: "op", Start: ev.due, End: edge, Failed: failed})
		if t.layers && !failed {
			t.add(span{ID: ev.pub, Parent: ev.op, Op: ev.op, Name: "timeserver.publish_call", Start: ev.pubStart, End: ev.pubEnd})
			t.add(span{ID: t.newID(), Parent: ev.op, Op: ev.op, Name: "timeserver.relay_hop", Start: ev.due, End: ev.relayRecv.Load()})
			// Not on the way to the edge: measured, but no child of the op.
			t.add(span{ID: t.newID(), Op: ev.op, Name: "timeserver.audience_last", Start: ev.due, End: ev.audienceLast.Load()})
		}
	}
	return m, nil
}

func (b *broadcast) report(cfg config, st traceStats, m *meter, res *result) {
	var late []float64
	var delivered, owed float64
	for _, ev := range b.events {
		if ev.pubStart == 0 || ev.due < m.from || ev.due >= m.to {
			continue
		}
		late = append(late, float64(ev.pubStart-ev.due)/1e6)
		delivered += float64(ev.audience.Load())
		owed += broadcastAudience
	}
	lateP99 := percentile(late, 0.99)
	if lateP99 > float64(broadcastInterval)/1e6 {
		res.invalid("generator ran %.3f ms late at p99, more than one %v interval: the open loop did not hold its rate", lateP99, broadcastInterval)
	}
	if delivered != owed {
		res.invalid("audience received %.0f of %.0f events intact", delivered, owed)
	}
	res.diag("generator_late_p50_ms", median(late), "ms", len(late))
	if !cfg.trace {
		res.diag("generator_late_p99_ms", lateP99, "ms", len(late))
		return
	}
	after := counters(b.regs...)
	sheds := float64(after["timeserver.stream_sheds"] - b.base["timeserver.stream_sheds"])
	if sheds != 0 {
		res.invalid("%.0f subscribers were shed", sheds)
	}
	res.set("timeserver.generator_late_p99_ms", lateP99, "ms", len(late))
	res.set("timeserver.audience_delivered_ratio", delivered/owed, "ratio", int(owed))
	res.set("timeserver.sheds", sheds, "count", 1)
	reportSchemeCounters(res, b.base, after, st.allOps, false)
	probeWire(res, b.origin)
}

func (b *broadcast) close() {
	b.stop()
	for _, c := range b.conns {
		c.Close()
	}
	b.srv.Drain()
	b.origin.close()
	b.wg.Wait()
}
