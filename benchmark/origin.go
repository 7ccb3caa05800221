package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"timedrelease/internal/archive"
	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/wire"
)

// origin is the in-process time server every workload runs against: a
// seeded key, a file-backed archive (fsync per put) with `epochs`
// pre-published labels, served over real loopback HTTP.
type origin struct {
	set    *params.Set
	codec  *wire.Codec
	key    *core.ServerKeyPair
	sched  timefmt.Schedule
	srv    *timeserver.Server
	reg    *obs.Registry // the server's registry on a traced run, else nil
	labels []string      // pre-published, ascending
	head   int64         // schedule index of the newest pre-published label
	clock  atomic.Int64  // the server's time source, UnixNano
	url    string
	// handler is what the origin serves, wrappers included.
	handler http.Handler

	closers []func()
}

type originOpts struct {
	preset string
	epochs int
	// middleware and decorator say whether a traced run wraps the
	// handler and the archive (request/response workloads do, the
	// stream workload times its publish path itself).
	middleware, decorator bool
	extra                 []timeserver.Option
}

var setupSeq atomic.Int64 // one work directory per set-up

func newOrigin(cfg config, t *tracer, rng *rand.Rand, opts originOpts) (*origin, error) {
	set, err := params.Preset(opts.preset)
	if err != nil {
		return nil, err
	}
	o := &origin{set: set, codec: wire.NewCodec(set), sched: timefmt.MustSchedule(time.Second)}
	if o.key, err = core.NewScheme(set).ServerKeyGen(rng); err != nil {
		return nil, err
	}
	dir := fmt.Sprintf("%s/origin-%d", cfg.workDir, setupSeq.Add(1))
	log, err := archive.OpenDir(dir, o.codec)
	if err != nil {
		return nil, err
	}
	o.closers = append(o.closers, func() { log.Close(); os.RemoveAll(dir) })
	var arch archive.Archive = log
	if t.layers && opts.decorator {
		arch = &tracedArchive{Archive: log, ranger: log, t: t}
	}

	now := time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)
	o.clock.Store(now.UnixNano())
	srvOpts := append([]timeserver.Option{
		timeserver.WithArchive(arch),
		timeserver.WithClock(func() time.Time { return time.Unix(0, o.clock.Load()).UTC() }),
	}, opts.extra...)
	if t.layers {
		o.reg = obs.NewRegistry()
		srvOpts = append(srvOpts, timeserver.WithMetrics(o.reg))
	}
	o.srv = timeserver.NewServer(set, o.key, o.sched, srvOpts...)

	epochs := opts.epochs
	o.head = o.sched.Index(now)
	o.labels = make([]string, epochs)
	for i := range o.labels {
		o.labels[i] = o.sched.LabelAt(o.head - int64(epochs-1-i))
		if err := o.srv.PublishLabel(o.labels[i]); err != nil {
			o.close()
			return nil, fmt.Errorf("pre-publishing %s: %w", o.labels[i], err)
		}
		if i%16 == 0 {
			t.cal.sample(1) // signing the history is most of a set-up
		}
	}

	h := o.srv.Handler()
	if cfg.wrapHandler != nil {
		h = cfg.wrapHandler(h)
	}
	if t.layers && opts.middleware {
		h = t.middleware(h)
	}
	o.handler = h
	ts := httptest.NewServer(h)
	o.url = ts.URL
	o.closers = append(o.closers, ts.Close)
	return o, nil
}

// advance moves the server's clock into epoch idx, so that its label
// may be published.
func (o *origin) advance(idx int64) {
	o.clock.Store(o.sched.Start(idx).Add(o.sched.Granularity / 2).UnixNano())
}

func (o *origin) close() {
	for i := len(o.closers) - 1; i >= 0; i-- {
		o.closers[i]()
	}
	o.closers = nil
}
