package threshold

import (
	"context"
	"errors"
	"fmt"
	"time"

	"timedrelease/internal/bls"
	"timedrelease/internal/core"
	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/timeserver"
)

// Deployment note: a threshold shard IS an ordinary passive time server.
// Server i runs internal/timeserver with the key pair (sᵢ, (G, sᵢG)) —
// its published "updates" are exactly the partial updates sᵢ·H1(T), and
// the standard client verifies them against the shard's public key. No
// new server code or protocol is needed; only the receiver-side quorum
// logic below is threshold-aware.

// ShardServerKey converts a dealt share into the key pair its time
// server process runs with.
func ShardServerKey(set *params.Set, share Share) *core.ServerKeyPair {
	key, err := bls.NewPrivateKey(set, set.G, share.S)
	if err != nil {
		// Deal and keyfile.LoadShare both refuse an out-of-range scalar.
		panic("threshold: " + err.Error())
	}
	return key
}

// Shard pairs a share index with a verifying client pinned to that
// shard's public key.
type Shard struct {
	Index  int
	Client *timeserver.Client
}

// QuorumClient fetches partial updates from all shards concurrently and
// combines the first k that verify into the group update.
type QuorumClient struct {
	Set      *params.Set
	GroupPub core.ServerPublicKey
	K        int
	Shards   []Shard
	// Metrics, when non-nil, records quorum.* counters and the
	// combine latency histogram (see docs/OBSERVABILITY.md).
	Metrics *obs.Registry
}

// rewaitPause is how long a quorum wait pauses before it asks a member
// whose wait failed again.
const rewaitPause = time.Second

// Update returns the group's key update for label, succeeding as soon
// as any K shards have delivered verified partials. Slow, crashed, or
// Byzantine shards (whose responses fail the pinned-key check inside
// each client) simply don't count toward the quorum; outstanding
// requests are cancelled once the quorum is met.
func (qc *QuorumClient) Update(ctx context.Context, label string) (core.KeyUpdate, error) {
	return qc.gather(ctx, label, (*timeserver.Client).Update)
}

// WaitForRelease blocks until the label's quorum combines or the
// context ends. Each member is waited on through its own long-poll
// (timeserver.Client.WaitForRelease), so there is no poll interval.
// EVERY member failure but a bad update is treated as transient — a
// shard that is down, partitioned, or behind may recover and tip the
// quorum later — which is exactly the availability contract the k-of-n
// deployment exists for: a member whose wait fails is asked again after
// rewaitPause, while the others keep waiting, and the first K verified
// partials combine.
func (qc *QuorumClient) WaitForRelease(ctx context.Context, label string) (core.KeyUpdate, error) {
	upd, err := qc.gather(ctx, label, waitMember)
	if err != nil && ctx.Err() != nil {
		return core.KeyUpdate{}, fmt.Errorf("threshold: wait for %q: %w (last: %v)", label, ctx.Err(), err)
	}
	return upd, err
}

// waitMember waits for one member's partial until it verifies, fails
// verification, or ctx ends.
func waitMember(c *timeserver.Client, ctx context.Context, label string) (core.KeyUpdate, error) {
	for {
		u, err := c.WaitForRelease(ctx, label)
		if err == nil || errors.Is(err, timeserver.ErrBadUpdate) {
			return u, err
		}
		t := time.NewTimer(rewaitPause)
		select {
		case <-ctx.Done():
			t.Stop()
			return u, err
		case <-t.C:
		}
	}
}

// gather asks every shard for its partial through fetch, concurrently,
// and combines the first K that verify.
func (qc *QuorumClient) gather(ctx context.Context, label string,
	fetch func(*timeserver.Client, context.Context, string) (core.KeyUpdate, error)) (core.KeyUpdate, error) {
	if qc.K < 1 || len(qc.Shards) < qc.K {
		return core.KeyUpdate{}, fmt.Errorf("threshold: %d shards cannot meet quorum %d", len(qc.Shards), qc.K)
	}
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type result struct {
		index int
		upd   core.KeyUpdate
		err   error
	}
	// Buffered to shard count so late responders never block and no
	// goroutine outlives the buffered send.
	results := make(chan result, len(qc.Shards))
	for _, sh := range qc.Shards {
		go func(sh Shard) {
			u, err := fetch(sh.Client, ctx, label)
			results <- result{index: sh.Index, upd: u, err: err}
		}(sh)
	}

	var (
		partials []PartialUpdate
		failures []error
	)
	for range qc.Shards {
		r := <-results
		if r.err != nil {
			qc.Metrics.Counter("quorum.partials_failed").Inc()
			failures = append(failures, fmt.Errorf("shard %d: %w", r.index, r.err))
			continue
		}
		qc.Metrics.Counter("quorum.partials_ok").Inc()
		partials = append(partials, PartialUpdate{Index: r.index, Label: r.upd.Label, Point: r.upd.Point})
		if len(partials) == qc.K {
			upd, err := Combine(qc.Set, qc.GroupPub, partials, qc.K)
			if err != nil {
				qc.Metrics.Counter("quorum.failures").Inc()
				return core.KeyUpdate{}, err
			}
			qc.Metrics.Counter("quorum.combines").Inc()
			qc.Metrics.Histogram("quorum.combine_ns").Since(start)
			return upd, nil
		}
	}
	qc.Metrics.Counter("quorum.failures").Inc()
	return core.KeyUpdate{}, &QuorumError{Need: qc.K, Have: len(partials), Causes: failures}
}
