package timeserver

import (
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/obs"
)

// hub is the coalesced broadcast layer between the publish path and the
// request handlers. One publish hands the already-encoded update bytes
// to every parked subscriber — stream connections and one-shot
// long-poll waiters alike — in a single pass over the registry, so the
// cost of a publish is one wire encode plus one registry pass
// regardless of how many connections are parked. Compare the old
// notifier, which woke every waiter blindly and had each one re-read
// the archive and re-encode the update for itself.
//
// The registry is one map under one mutex. publish holds it for its
// pass of non-blocking sends; subscribe and unsubscribe are O(1) under
// it, so no pass can race a removal. Subscriptions carry no identity —
// a subscriber is an anonymous channel and a label filter, consistent
// with the server's no-user-state property.
type hub struct {
	mu        sync.Mutex
	subs      map[*subscriber]struct{}
	drained   chan struct{} // closed by drain(): every handler unparks terminally
	drainOnce sync.Once

	// Publish-path accounting, maintained unconditionally (the
	// one-encode-one-pass contract is pinned by tests against these).
	encodes   atomic.Int64 // wire encodes performed for broadcast
	passes    atomic.Int64 // registry sweeps performed
	delivered atomic.Int64 // messages enqueued to subscribers
	sheds     atomic.Int64 // slow subscribers dropped to catch-up

	// Observability (nil without instrument; obs types no-op on nil).
	gSubs      *obs.Gauge     // timeserver.subscribers
	gQueue     *obs.Gauge     // timeserver.stream_queue_depth
	cDelivered *obs.Counter   // timeserver.fanout_deliveries
	cSheds     *obs.Counter   // timeserver.stream_sheds
	hFanout    *obs.Histogram // timeserver.fanout_ns — one full registry pass
}

// streamQueueCap bounds each stream subscriber's send queue. A
// subscriber that falls this many updates behind is shed (dropped to
// catch-up) rather than allowed to block or bloat the publish path. A
// var, not a const, so tests can shrink it.
var streamQueueCap = 64

// streamMsg is one published update, encoded once for everybody. idx is
// the label's schedule index: stream handlers order events by it, never
// by the label string — RFC3339 labels with fractional seconds
// ("…T12:00:00.5Z" vs "…T12:00:01Z") do not sort chronologically as
// strings.
type streamMsg struct {
	idx   int64
	label string
	body  []byte
}

// subscriber is one parked connection. label == "" subscribes to every
// future update (a /v1/stream connection); otherwise exactly that label
// (a one-shot /v1/wait parker, queue capacity 1).
type subscriber struct {
	label    string
	ch       chan streamMsg
	shed     chan struct{} // closed when the hub drops this subscriber
	shedOnce sync.Once
}

func (s *subscriber) drop() { s.shedOnce.Do(func() { close(s.shed) }) }

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{}), drained: make(chan struct{})}
}

// instrument binds the hub's metrics to r (see docs/OBSERVABILITY.md).
func (h *hub) instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	h.gSubs = r.Gauge("timeserver.subscribers")
	h.gQueue = r.Gauge("timeserver.stream_queue_depth")
	h.cDelivered = r.Counter("timeserver.fanout_deliveries")
	h.cSheds = r.Counter("timeserver.stream_sheds")
	h.hFanout = r.Histogram("timeserver.fanout_ns")
}

// subscribe registers a parked connection. label == "" receives every
// future update; a non-empty label receives only that update (capacity
// 1 — an epoch's update is published at most once).
func (h *hub) subscribe(label string) *subscriber {
	capacity := streamQueueCap
	if label != "" {
		capacity = 1
	}
	sub := &subscriber{
		label: label,
		ch:    make(chan streamMsg, capacity),
		shed:  make(chan struct{}),
	}
	h.mu.Lock()
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	h.gSubs.Add(1)
	return sub
}

// unsubscribe removes a subscriber and settles its queue-depth
// accounting: once it is out of the map no publish can enqueue to it,
// so draining its queue here leaves the gauge exact.
func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
	h.gSubs.Add(-1)
	for {
		select {
		case <-sub.ch:
			h.gQueue.Add(-1)
		default:
			return
		}
	}
}

// count returns the number of registered subscribers.
func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// publish fans the already-encoded update out to every matching
// subscriber in ONE pass. Enqueueing never blocks: a stream subscriber
// whose queue is full is shed (its handler sends a terminal comment and
// closes, and the client reconnects through catch-up); a one-shot
// waiter with a full queue already holds its answer.
func (h *hub) publish(idx int64, label string, body []byte) {
	start := time.Now()
	h.passes.Add(1)
	msg := streamMsg{idx: idx, label: label, body: body}
	var delivered, sheds int64
	h.mu.Lock()
	for sub := range h.subs {
		if sub.label != "" && sub.label != label {
			continue
		}
		select {
		case sub.ch <- msg:
			h.gQueue.Add(1) // before the next send: a reader's -1 trails by at most one
			delivered++
		default:
			if sub.label == "" {
				sub.drop()
				sheds++
			}
		}
	}
	h.mu.Unlock()
	h.delivered.Add(delivered)
	h.sheds.Add(sheds)
	h.cDelivered.Add(delivered)
	h.cSheds.Add(sheds)
	h.hFanout.Since(start)
}

// drain unparks every current and future handler terminally: streams
// write a closing comment and end, one-shot waits answer 503. Used by
// Drain so graceful shutdown stays prompt with any number of
// subscribers attached.
func (h *hub) drain() {
	h.drainOnce.Do(func() { close(h.drained) })
}
