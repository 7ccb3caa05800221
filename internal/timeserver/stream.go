package timeserver

import (
	"encoding/base64"
	"io"
	"math"
	"net/http"
	"sort"
	"time"
)

// streamKeepalive is how often an otherwise-idle stream connection gets
// a comment line, so dead peers are detected and intermediaries keep
// the connection open.
var streamKeepalive = 15 * time.Second

// writeSSE writes one update event: the wire-encoded KeyUpdate bytes as
// a base64 data line. SSE framing is text-only, and base64 keeps every
// consumer — browsers, curl, the Go client — on the same simple parser.
func writeSSE(w io.Writer, body []byte) error {
	buf := make([]byte, 0, base64.StdEncoding.EncodedLen(len(body))+16)
	buf = append(buf, "data: "...)
	buf = base64.StdEncoding.AppendEncode(buf, body)
	buf = append(buf, '\n', '\n')
	_, err := w.Write(buf)
	return err
}

// handleStream serves GET /v1/stream[?from=label]: a Server-Sent-Events
// connection that pushes every future key update as it is published.
// With from=L the archive is first replayed from L (inclusive), so a
// reconnecting receiver resumes without a separate catch-up request;
// without it the stream is live-only. After the replay a ": ready"
// comment marks the live boundary.
//
// The stream is monotone in schedule order: an event whose epoch index
// is at or before the last delivered one is suppressed (this
// deduplicates the replay/live overlap; backfills of older epochs are
// served by /v1/update and /v1/catchup, not the stream).
//
// Flow control protects the publish path, never the reverse: each
// connection owns a bounded queue fed by the broadcast hub, and a
// consumer that falls a full queue behind is shed — it gets a terminal
// ": dropped" comment and a close, and is expected to catch up and
// reconnect. A draining server closes every stream with a ": drain"
// comment. Like every route this is read-only over published data.
func (v *publicView) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	if v.draining.Load() {
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	// Ordering is by schedule index throughout — label strings with
	// fractional seconds do not sort chronologically, so comparing them
	// lexicographically would silently drop sub-second epochs.
	from := r.URL.Query().Get("from")
	fromIdx := int64(math.MinInt64)
	if from != "" {
		t, err := v.sched.ParseLabel(from)
		if err != nil {
			http.Error(w, "from is not a schedule label", http.StatusBadRequest)
			return
		}
		fromIdx = v.sched.Index(t)
	}

	// Subscribe BEFORE replaying the archive so a publish in between is
	// queued, not missed; the monotone-index rule drops the overlap.
	sub := v.hub.subscribe("")
	defer v.hub.unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the push
	w.WriteHeader(http.StatusOK)

	lastIdx := int64(math.MinInt64)
	if from != "" {
		// The archive is in label order, which is index order only from
		// one whole second to the next: the labels of a second share
		// their first 19 bytes and sort by their fraction's text. So
		// select from that prefix up (at most the earlier epochs of
		// from's second come along, and are filtered out) and sort.
		page, err := v.arch.Range(from[:19], "\xff", 0)
		if err != nil {
			return
		}
		type entry struct {
			idx int64
			pos int // in page.Updates
		}
		replay := make([]entry, 0, len(page.Updates))
		for pos, u := range page.Updates {
			t, err := v.sched.ParseLabel(u.Label)
			if err != nil {
				continue // off-schedule archive entry: not streamable
			}
			if idx := v.sched.Index(t); idx >= fromIdx {
				replay = append(replay, entry{idx, pos})
			}
		}
		sort.Slice(replay, func(i, j int) bool { return replay[i].idx < replay[j].idx })
		for _, e := range replay {
			// Replay encodes are per-connection catch-up cost, paid by the
			// reconnecting consumer — publish fan-out stays one encode total.
			if err := writeSSE(w, v.codec.MarshalKeyUpdate(page.Updates[e.pos])); err != nil {
				return
			}
			v.archHit.Inc()
			lastIdx = e.idx
		}
	}
	if _, err := io.WriteString(w, ": ready\n\n"); err != nil {
		return
	}
	fl.Flush()

	keep := time.NewTicker(streamKeepalive)
	defer keep.Stop()
	for {
		select {
		case m := <-sub.ch:
			v.hub.gQueue.Add(-1)
			if m.idx <= lastIdx {
				continue // replay overlap or stale backfill: stream stays monotone
			}
			if err := writeSSE(w, m.body); err != nil {
				return
			}
			fl.Flush()
			lastIdx = m.idx
		case <-sub.shed:
			io.WriteString(w, ": dropped: send queue overflowed, catch up and reconnect\n\n")
			fl.Flush()
			return
		case <-v.hub.drained:
			io.WriteString(w, ": drain: server shutting down\n\n")
			fl.Flush()
			return
		case <-r.Context().Done():
			return
		case <-keep.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		}
	}
}
