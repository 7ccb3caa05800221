package bench

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/timeserver"
)

// dialBurst bounds concurrent connection setups so tens of thousands of
// subscribers do not slam the listen backlog (somaxconn) all at once.
const dialBurst = 256

// countingConn tallies bytes received, for the per-connection cost
// column of the stream rows.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// sseLabel extracts the label from a wire-encoded KeyUpdate without
// decompressing the point: the subscriber side of the bench measures
// delivery, not verification (the verifying edge client is measured by
// benchmark/'s broadcast-test160 workload).
func sseLabel(raw []byte) (string, bool) {
	if len(raw) < 2 {
		return "", false
	}
	n := int(binary.BigEndian.Uint16(raw))
	if len(raw) < 2+n {
		return "", false
	}
	return string(raw[2 : 2+n]), true
}

// streamFanout is the serving surface one stream/relay cell attaches
// its subscribers to, plus its teardown.
type streamFanout struct {
	dial      func() (net.Conn, error)
	transport string
	teardown  func()
}

// newFanout builds the cell's downstream surface. The stream mix
// subscribes directly to the origin; the relay mix interposes a
// stateless relay (own hub, own archive) fed from the origin over the
// real stream client. Counts that fit the FD limit run over real TCP;
// larger ones run over the in-memory transport so the broadcast layer
// is still measured at full scale.
func newFanout(t *loadTarget, mix string, subs int, fdlim int64) (*streamFanout, error) {
	needFDs := int64(subs)*2 + 512 // both pipe ends live in this process
	useTCP := fdlim > 0 && needFDs <= fdlim
	f := &streamFanout{}
	var cleanup []func()
	f.teardown = func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}

	handler := t.srv.Handler()
	if mix == "relay" {
		up := timeserver.NewClient(t.url, t.set, t.spub)
		relay := timeserver.NewRelay(up, t.sched)
		handler = relay.Handler()
		ctx, cancel := context.WithCancel(context.Background())
		relayDone := make(chan struct{})
		go func() { defer close(relayDone); relay.Run(ctx) }()
		cleanup = append(cleanup, func() { cancel(); <-relayDone })
	}

	if useTCP {
		f.transport = "tcp"
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addr := ln.Addr().String()
		f.dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		hs := &http.Server{Handler: handler}
		go hs.Serve(ln)
		cleanup = append(cleanup, func() { hs.Close() })
	} else {
		f.transport = "inmem"
		ln := newMemListener()
		f.dial = ln.Dial
		hs := &http.Server{Handler: handler}
		go hs.Serve(ln)
		cleanup = append(cleanup, func() { hs.Close(); ln.Close() })
	}

	if mix == "relay" {
		// Wait for the relay to converge on the origin archive before
		// attaching subscribers, so first-publish latency measures the
		// fan-out, not the relay's startup sync.
		probeHTTP := &http.Client{Transport: &http.Transport{
			DialContext: func(context.Context, string, string) (net.Conn, error) { return f.dial() },
		}}
		probe := timeserver.NewClient("http://bench", t.set, t.spub, timeserver.WithHTTPClient(probeHTTP))
		deadline := time.Now().Add(30 * time.Second)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := probe.Update(ctx, t.newest)
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				f.teardown()
				return nil, fmt.Errorf("bench: relay never converged on the origin archive: %w", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		probeHTTP.CloseIdleConnections()
	}
	return f, nil
}

// runStream measures publish→delivery fan-out latency with `subs`
// concurrent /v1/stream subscribers parked on the origin (mix
// "stream") or on a stateless relay fed by it (mix "relay"). Each cell
// publishes StreamPublishes forward epochs StreamInterval apart and
// every subscriber timestamps each delivery; P50/P95/P99 are the
// publish→delivery wakeup latencies across all subscribers × events.
func runStream(t *loadTarget, mix string, subs int, cfg ServerLoadConfig) (ServerRow, error) {
	fdlim := fdLimit()
	f, err := newFanout(t, mix, subs, fdlim)
	if err != nil {
		return ServerRow{}, err
	}
	defer f.teardown()

	// Reserve this cell's forward epochs and publish timestamps up
	// front so subscribers can map labels to publish times locally.
	pubs := cfg.StreamPublishes
	firstIdx := t.nextFwd.Add(int64(pubs)) - int64(pubs)
	labels := make(map[string]int, pubs)
	order := make([]string, pubs)
	for i := 0; i < pubs; i++ {
		l := t.sched.LabelAt(firstIdx + int64(i))
		labels[l], order[i] = i, l
	}
	pubNS := make([]atomic.Int64, pubs)

	var (
		readyWG   sync.WaitGroup // every subscriber parked live
		doneWG    sync.WaitGroup
		rxBytes   atomic.Int64
		errCount  atomic.Int64
		shedCount atomic.Int64
		latMu     sync.Mutex
		all       []int64
		dialSem   = make(chan struct{}, dialBurst)
	)
	readDeadline := time.Now().Add(time.Duration(pubs)*cfg.StreamInterval + 90*time.Second)

	subscriber := func() {
		defer doneWG.Done()
		ready := false
		markReady := func() {
			if !ready {
				ready = true
				readyWG.Done()
			}
		}
		defer markReady() // a failed subscriber must not wedge the cell
		fail := func() { errCount.Add(1) }

		dialSem <- struct{}{}
		conn, err := f.dial()
		<-dialSem
		if err != nil {
			fail()
			return
		}
		defer conn.Close()
		conn.SetDeadline(readDeadline)
		cc := &countingConn{Conn: conn, n: &rxBytes}
		if _, err := cc.Write([]byte("GET /v1/stream HTTP/1.1\r\nHost: bench\r\nAccept: text/event-stream\r\n\r\n")); err != nil {
			fail()
			return
		}
		br := bufio.NewReaderSize(cc, 512)
		resp, err := http.ReadResponse(br, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			fail()
			return
		}
		// No resp.Body.Close(): closing a chunked body drains it to EOF,
		// which on an endless SSE stream blocks until the read deadline.
		// The deferred conn.Close tears the transport down directly.
		body := bufio.NewReaderSize(resp.Body, 512)

		var lats []int64
		received := 0
		data := ""
		for received < pubs {
			line, err := body.ReadString('\n')
			if err != nil {
				// Cut mid-cell: a shed (the hub dropped us) or a transport
				// failure. Either way the events this subscriber missed are
				// the row's honesty, not a harness bug.
				shedCount.Add(1)
				fail()
				break
			}
			line = strings.TrimRight(line, "\r\n")
			switch {
			case strings.HasPrefix(line, ": ready"):
				markReady()
			case strings.HasPrefix(line, "data:"):
				data = strings.TrimSpace(line[len("data:"):])
			case line == "" && data != "":
				now := time.Now().UnixNano()
				raw, err := base64.StdEncoding.DecodeString(data)
				data = ""
				if err != nil {
					continue
				}
				label, ok := sseLabel(raw)
				if !ok {
					continue
				}
				if i, ok := labels[label]; ok {
					if t0 := pubNS[i].Load(); t0 > 0 {
						lats = append(lats, now-t0)
					}
					received++
				}
			}
		}
		latMu.Lock()
		all = append(all, lats...)
		latMu.Unlock()
	}

	servedBefore := t.srv.Served()
	readyWG.Add(subs)
	doneWG.Add(subs)
	start := time.Now()
	for i := 0; i < subs; i++ {
		go subscriber()
	}
	readyWG.Wait()

	// All subscribers parked live: publish the forward epochs.
	for i := 0; i < pubs; i++ {
		if i > 0 {
			time.Sleep(cfg.StreamInterval)
		}
		t.advanceTo(t.sched.Start(firstIdx + int64(i)).Add(t.sched.Granularity / 2))
		pubNS[i].Store(time.Now().UnixNano())
		if err := t.srv.PublishLabel(order[i]); err != nil {
			return ServerRow{}, fmt.Errorf("bench: forward publish %s: %w", order[i], err)
		}
	}
	doneWG.Wait()
	elapsed := time.Since(start)

	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	row := ServerRow{
		Preset:       t.set.Name,
		Mix:          mix,
		Subscribers:  subs,
		Transport:    f.transport,
		FDLimit:      fdlim,
		Ops:          int64(len(all)),
		Errors:       errCount.Load(),
		Sheds:        shedCount.Load(),
		DurationNS:   elapsed.Nanoseconds(),
		RPS:          float64(len(all)) / elapsed.Seconds(),
		P50NS:        pct(all, 0.50),
		P95NS:        pct(all, 0.95),
		P99NS:        pct(all, 0.99),
		Published:    int64(pubs),
		PerConnBytes: float64(rxBytes.Load()) / float64(subs),
	}
	if mix == "stream" {
		row.ServerRequests = t.srv.Served() - servedBefore
	}
	return row, nil
}
