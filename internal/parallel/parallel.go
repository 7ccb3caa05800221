// Package parallel provides a minimal bounded fork-join helper for the
// CPU-bound hot paths of this repository (Miller loops in pairing
// products, blinded sums in BLS batch verification). It deliberately has
// no dependencies and no configuration beyond GOMAXPROCS: callers hand
// it an index space and an independent per-index function, and combine
// the results themselves in deterministic index order.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"timedrelease/internal/obs"
)

// Pool-wide instrumentation. The atomics are always maintained (a few
// adds per For call, negligible against a Miller loop); Instrument
// additionally mirrors them into an obs.Registry so they appear in the
// /metrics snapshot alongside the serving-path metrics.
var (
	statBatches atomic.Int64 // For calls that spawned workers
	statInline  atomic.Int64 // For calls that ran on the caller
	statTasks   atomic.Int64 // indices executed (either way)
	statPending atomic.Int64 // indices dispatched but not yet finished
	statActive  atomic.Int64 // workers currently running
)

// Instrument registers the pool counters on r as polled gauges under
// parallel.* (worker utilisation = parallel.active_workers against
// GOMAXPROCS; queue depth = parallel.pending_tasks). Multiple
// registries may be instrumented; the pool is process-global.
func Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	r.GaugeFunc("parallel.batches", func() int64 { return statBatches.Load() })
	r.GaugeFunc("parallel.inline_batches", func() int64 { return statInline.Load() })
	r.GaugeFunc("parallel.tasks", func() int64 { return statTasks.Load() })
	r.GaugeFunc("parallel.pending_tasks", func() int64 { return statPending.Load() })
	r.GaugeFunc("parallel.active_workers", func() int64 { return statActive.Load() })
	r.GaugeFunc("parallel.max_workers", func() int64 { return int64(runtime.GOMAXPROCS(0)) })
}

// For runs fn(0) … fn(n-1) across a worker pool bounded by
// runtime.GOMAXPROCS(0). Each index is executed exactly once; indices
// are claimed dynamically so uneven work is balanced. For returns after
// every call has completed. When n ≤ 1 or only one processor is
// available it degenerates to a plain loop on the calling goroutine, so
// sequential behaviour (and determinism of anything fn does) is
// preserved exactly.
//
// fn must be safe to call concurrently for distinct indices; writes
// should go to per-index slots (e.g. out[i]) so no further
// synchronisation is needed.
func For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	statPending.Add(int64(n))
	defer statTasks.Add(int64(n))
	if workers <= 1 {
		statInline.Add(1)
		for i := 0; i < n; i++ {
			fn(i)
			statPending.Add(-1)
		}
		return
	}
	statBatches.Add(1)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			statActive.Add(1)
			defer statActive.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
				statPending.Add(-1)
			}
		}()
	}
	wg.Wait()
}
