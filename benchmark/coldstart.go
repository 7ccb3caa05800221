package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"

	"timedrelease/internal/archive"
	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/timeserver"
	"timedrelease/internal/wire"
)

const (
	coldstartEpochs = 576 // archived labels: 12 aligned runs
	coldstartRun    = 48  // consecutive labels one catch-up asks for
)

// coldstart is the coldstart-ss512 workload: a receiver returning
// after 48 missed epochs. Every operation is a FRESH timeserver.Client
// — empty update cache, fresh scheme with empty label and prepared-key
// caches — catching up on a seeded, aligned run of 48 consecutive
// labels through the /v1/catchup range path.
type coldstart struct {
	*origin
	reg  *obs.Registry
	base map[string]int64
	rng  *rand.Rand
	http *http.Client
	tt   *tracedTransport
}

func setupColdstart(cfg config, t *tracer, rng *rand.Rand) (instance, error) {
	o, err := newOrigin(cfg, t, rng, originOpts{preset: "SS512", epochs: coldstartEpochs / cfg.scale, middleware: true, decorator: true})
	if err != nil {
		return nil, err
	}
	if len(o.labels) < coldstartRun {
		o.close()
		return nil, fmt.Errorf("coldstart needs %d archived labels, has %d", coldstartRun, len(o.labels))
	}
	c := &coldstart{origin: o, rng: rng}
	if t.layers {
		c.reg = obs.NewRegistry()
	}
	c.http, c.tt = newHTTPClient(t)
	return c, nil
}

func (c *coldstart) run(cfg config, t *tracer, res *result) (*meter, error) {
	c.base = counters(c.reg)
	return closedLoop{clients: 1, op: c.op}.run(cfg, t, res)
}

func (c *coldstart) op(_ int, o *opCtx) (func(), error) {
	off := coldstartRun * c.rng.Intn(len(c.labels)/coldstartRun)
	want := c.labels[off : off+coldstartRun]
	spub := c.key.Pub

	opts := []timeserver.ClientOption{timeserver.WithHTTPClient(c.http), timeserver.WithRetry(timeserver.NoRetry)}
	if o.traced() {
		opts = append(opts, timeserver.WithClientMetrics(c.reg))
	}
	c.tt.under(o, o.id)
	got, err := timeserver.NewClient(c.url, c.set, spub, opts...).CatchUp(context.Background(), want)
	if err != nil {
		return nil, err
	}
	if len(got) != len(want) {
		return nil, fmt.Errorf("catch-up returned %d updates for %d labels", len(got), len(want))
	}
	for i, u := range got {
		if u.Label != want[i] {
			return nil, fmt.Errorf("catch-up returned %s where %s was asked", u.Label, want[i])
		}
	}
	if !o.traced() {
		return nil, nil
	}

	// What Client.CatchUp does with the page after the round trip,
	// replayed on the very body it received and on a scheme as fresh as
	// the client's own.
	body := c.tt.lastBody
	return func() {
		sc, codec := core.NewScheme(c.set), wire.NewCodec(c.set)
		var page wire.CatchUpResponse
		o.replay(o.id, "wire.decode_catchup", func() { page, _ = codec.UnmarshalCatchUpResponse(body) })
		o.replay(o.id, "archive.merkle_root", func() {
			leaves := make([][32]byte, len(page.Updates))
			for i, u := range page.Updates {
				leaves[i] = archive.LeafHash(codec.MarshalKeyUpdate(u))
			}
			archive.MerkleRoot(leaves)
		})
		o.replay(o.id, "core.verify_aggregate", func() { sc.VerifyUpdateAggregate(spub, page.Updates, page.Aggregate) })
		o.replay(o.id, "core.verify_batch", func() { sc.VerifyUpdateBatch(spub, page.Updates) })
		probeBackend(o, c.set, core.TimeDomain, []byte(want[0]), spub.SG, got[0].Point, c.key.S)
	}, nil
}

func (c *coldstart) report(cfg config, st traceStats, _ *meter, res *result) {
	if !cfg.trace {
		return
	}
	reportSchemeCounters(res, c.base, counters(c.reg), st.allOps, true)
	verify := res.Metrics["core.verify_aggregate_ms"].Value + res.Metrics["core.verify_batch_ms"].Value
	res.set("core.verify_ms_per_epoch", verify/coldstartRun, "ms", len(st.ops))
	probeWire(res, c.origin)
}

func (c *coldstart) close() {
	c.http.CloseIdleConnections()
	c.origin.close()
}
