package archive

import (
	"sort"

	"timedrelease/internal/backend"
	"timedrelease/internal/core"
	"timedrelease/internal/curve"
)

// Range serving over prefix aggregates. Every interval records the Log
// remembers the aggregate of the whole prefix it has indexed (a
// same-key BLS aggregate, internal/bls), so a range request needs only
// the two prefixes bracketing it: aggregate(range) = prefix(hi) −
// prefix(lo), at most 2·(interval−1) point additions instead of one
// per record. The aggregates are derived, in-memory data: index (log.go)
// builds them from records that already passed the verifier, on every
// open and on every Put, so a served aggregate never comes from disk.

// prefixAgg returns the aggregate over recs[:m], starting from the
// nearest prefix aggregate at or below m — at most interval−1 point
// additions.
func prefixAgg(b backend.Backend, recs []recMeta, ckpts []curve.Point, interval, m int) curve.Point {
	acc := b.Infinity(backend.G2)
	k := min(m/interval, len(ckpts))
	if k > 0 {
		acc = ckpts[k-1]
	}
	for _, r := range recs[k*interval : m] {
		acc = b.Add(backend.G2, acc, r.point)
	}
	return acc
}

// Range implements the Ranger fast path over the prefix aggregates:
// when the log was appended in label order (the normal forward-publish
// pattern) the range aggregate is prefix(hi) − prefix(lo), costing at
// most 2·(interval−1) additions however long the range is. A log with
// out-of-order backfills falls back to a direct scan-and-sum.
//
// The edge additions and the Merkle tree (up to 64k leaves) run on a
// snapshot taken under the lock, not under it: recs and ckpts are
// append-only, so a length-bounded view stays immutable once the lock
// is dropped, and a large catch-up request never stalls Put (the
// publish path) or other range requests.
func (l *Log) Range(from, to string, limit int) (RangeResult, error) {
	if from > to {
		return RangeResult{}, ErrBadRange
	}
	l.mu.Lock()
	recs, ckpts, sorted := l.recs, l.ckpts, l.sorted
	l.mu.Unlock()
	b := l.codec.Set.B
	if !sorted {
		return rangeScan(b, recs, from, to, limit), nil
	}
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].label >= from })
	hi := sort.Search(len(recs), func(i int) bool { return recs[i].label > to })
	total := hi - lo
	if limit > 0 && total > limit {
		hi = lo + limit
	}
	res := RangeResult{Total: total}
	res.Aggregate = b.Add(backend.G2,
		prefixAgg(b, recs, ckpts, l.interval, hi),
		b.Neg(backend.G2, prefixAgg(b, recs, ckpts, l.interval, lo)))
	leaves := make([][32]byte, 0, hi-lo)
	for _, r := range recs[lo:hi] {
		res.Updates = append(res.Updates, core.KeyUpdate{Label: r.label, Point: r.point})
		leaves = append(leaves, r.leaf)
	}
	res.Root = MerkleRoot(leaves)
	return res, nil
}

// rangeScan is the unsorted-log fallback: gather, sort, sum over a
// snapshot of the record list.
func rangeScan(b backend.Backend, recs []recMeta, from, to string, limit int) RangeResult {
	var match []recMeta
	for _, r := range recs {
		if r.label >= from && r.label <= to {
			match = append(match, r)
		}
	}
	sort.Slice(match, func(i, j int) bool { return match[i].label < match[j].label })
	total := len(match)
	if limit > 0 && total > limit {
		match = match[:limit]
	}
	res := RangeResult{Total: total, Aggregate: b.Infinity(backend.G2)}
	leaves := make([][32]byte, 0, len(match))
	for _, r := range match {
		res.Updates = append(res.Updates, core.KeyUpdate{Label: r.label, Point: r.point})
		res.Aggregate = b.Add(backend.G2, res.Aggregate, r.point)
		leaves = append(leaves, r.leaf)
	}
	res.Root = MerkleRoot(leaves)
	return res
}

var _ Ranger = (*Log)(nil)
