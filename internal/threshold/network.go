package threshold

import (
	"context"
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

// Update returns the group's key update for label, succeeding as soon
// as any K shards have delivered verified partials. Slow, crashed, or
// Byzantine shards (whose responses fail the pinned-key check inside
// each client) simply don't count toward the quorum; outstanding
// requests are cancelled once the quorum is met.
func (qc *QuorumClient) Update(ctx context.Context, label string) (core.KeyUpdate, error) {
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
			u, err := sh.Client.Update(ctx, label)
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

// WaitForRelease polls Update until the label's quorum combines or the
// context expires. EVERY failure is treated as transient — a shard that
// is down, partitioned, or behind may recover and tip the quorum on a
// later attempt — which is exactly the availability contract the
// k-of-n deployment exists for.
func (qc *QuorumClient) WaitForRelease(ctx context.Context, label string, poll time.Duration) (core.KeyUpdate, error) {
	if poll <= 0 {
		poll = time.Second
	}
	for {
		upd, err := qc.Update(ctx, label)
		if err == nil {
			return upd, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return core.KeyUpdate{}, fmt.Errorf("threshold: wait for %q: %w (last: %v)", label, ctxErr, err)
		}
		select {
		case <-ctx.Done():
			return core.KeyUpdate{}, fmt.Errorf("threshold: wait for %q: %w (last: %v)", label, ctx.Err(), err)
		case <-time.After(poll):
		}
	}
}
