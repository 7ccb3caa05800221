package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"timedrelease/internal/obs"
	"timedrelease/internal/params"
	"timedrelease/internal/threshold"
	"timedrelease/internal/timefmt"
	"timedrelease/internal/timeserver"
)

// roundsK and roundsN fix the measured deployment shape: the 3-of-5
// beacon network the chaos acceptance suite proves correct. The cell
// measures the cost the threshold deployment ADDS over a single server
// — n concurrent partial fetches plus one Lagrange combine per op.
const (
	roundsK = 3
	roundsN = 5
)

// runRounds measures quorum-combine latency on a k-of-n beacon
// network: `clients` concurrent receivers each run a closed loop of
// QuorumClient.Update against n real HTTP member servers (every op is
// n partial fetches + k pairing verifications + one Lagrange combine).
// This is the serving-path cost of a released beacon round as a
// threshold consumer sees it, the number the availability upgrade from
// one server to k-of-n is paid with.
func runRounds(preset string, clients int, cfg ServerLoadConfig) (ServerRow, error) {
	set, err := params.Preset(preset)
	if err != nil {
		return ServerRow{}, err
	}
	setup, err := threshold.Deal(set, nil, roundsK, roundsN)
	if err != nil {
		return ServerRow{}, err
	}

	// Members are ordinary passive time servers over their share keys,
	// each with the workload window pre-published (a released round IS a
	// published label).
	sched := timefmt.MustSchedule(time.Second)
	idx := sched.Index(time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC))
	labels := make([]string, loadWindow)
	for i := range labels {
		labels[i] = sched.LabelAt(idx - int64(loadWindow-1-i))
	}
	members := make([]*httptest.Server, roundsN)
	memberSrvs := make([]*timeserver.Server, roundsN)
	for i, share := range setup.Shares {
		srv := timeserver.NewServer(set, threshold.ShardServerKey(set, share), sched)
		for _, l := range labels {
			if err := srv.PublishLabel(l); err != nil {
				return ServerRow{}, fmt.Errorf("bench: member %d pre-publishing %s: %w", share.Index, l, err)
			}
		}
		memberSrvs[i] = srv
		members[i] = httptest.NewServer(srv.Handler())
		defer members[i].Close()
	}

	// One quorum client per worker (ops within a worker are sequential),
	// all sharing one registry — built up front, on one goroutine. Each
	// shard client keeps its own scheme, whose one prepared-key slot
	// holds that member's shard key.
	creg := obs.NewRegistry()
	qreg := obs.NewRegistry()
	quorums := make([]*threshold.QuorumClient, clients)
	for w := range quorums {
		shards := make([]threshold.Shard, roundsN)
		for i, share := range setup.Shares {
			shards[i] = threshold.Shard{
				Index: share.Index,
				Client: timeserver.NewClient(members[i].URL, set, threshold.ShardServerKey(set, share).Pub,
					timeserver.WithoutCache(),
					timeserver.WithClientMetrics(creg)),
			}
		}
		quorums[w] = &threshold.QuorumClient{
			Set: set, GroupPub: setup.GroupPub, K: roundsK, Shards: shards, Metrics: qreg,
		}
	}

	var (
		wg       sync.WaitGroup
		errs     atomic.Int64
		samples  = make([][]int64, clients)
		deadline = time.Now().Add(cfg.CellDuration)
	)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 1))
			qc := quorums[w]
			ctx := context.Background()
			var local []int64
			for time.Now().Before(deadline) {
				label := labels[rng.Intn(len(labels))]
				opStart := time.Now()
				_, err := qc.Update(ctx, label)
				local = append(local, time.Since(opStart).Nanoseconds())
				if err != nil {
					errs.Add(1)
				}
			}
			samples[w] = local
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []int64
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	row := ServerRow{
		Preset:     set.Name,
		Mix:        "rounds",
		Clients:    clients,
		Members:    roundsN,
		Quorum:     roundsK,
		Ops:        int64(len(all)),
		Errors:     errs.Load(),
		DurationNS: elapsed.Nanoseconds(),
		RPS:        float64(len(all)) / elapsed.Seconds(),
		P50NS:      pct(all, 0.50),
		P95NS:      pct(all, 0.95),
		P99NS:      pct(all, 0.99),
	}
	for _, srv := range memberSrvs {
		row.ServerRequests += srv.Served()
	}
	row.ClientPairings = creg.Snapshot().Counters["core.pairings"]
	qs := qreg.Snapshot().Counters
	row.QuorumCombines = qs["quorum.combines"]
	row.PartialsFailed = qs["quorum.partials_failed"]
	return row, nil
}
