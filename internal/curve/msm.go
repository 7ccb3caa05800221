package curve

import (
	"math/big"
	"runtime"

	"timedrelease/internal/ff"
	"timedrelease/internal/parallel"
)

// The multi-scalar multiplication is Straus's interleaving over
// width-4 NAFs: per point a table of the odd multiples P, 3P, 5P, 7P,
// then ONE doubling chain shared by a block of points, adding only
// where a digit is non-zero (1 bit in 5). Width 5 measures the same at
// 128-bit scalars for twice the table. A chunk reuses one block of
// msmBlock tables, so a 65 536-update page holds what a 32-update one
// does; at 32 the shared chain is ~7 % of a block's multiplications.
const (
	msmWindow = 4
	msmTable  = 1 << (msmWindow - 2)
	msmBlock  = 32
)

// MSM returns Σ kᵢ·Pᵢ. Scalars are non-negative and walked as given
// (never reduced: the points may lie anywhere on the curve, as the
// uncleared hash candidates of HashSum do); infinity points and zero
// scalars contribute nothing. The result is the same affine point the
// naive sum of ScalarMult outputs is, whatever GOMAXPROCS says.
func (c *Curve) MSM(scalars []*big.Int, points []Point) Point {
	if len(scalars) != len(points) {
		panic("curve: MSM needs one scalar per point")
	}
	return c.msm(scalars, func(i int) Point { return points[i] })
}

// msm splits the index space into one contiguous chunk per processor,
// sums each on the worker pool and folds the partial sums in index
// order. at(i) yields the i-th point inside the chunk's worker.
func (c *Curve) msm(scalars []*big.Int, at func(i int) Point) Point {
	n := len(scalars)
	parts := make([]Point, min(n, runtime.GOMAXPROCS(0)))
	parallel.For(len(parts), func(w int) {
		parts[w] = c.msmChunk(scalars, at, w*n/len(parts), (w+1)*n/len(parts))
	})
	sum := Infinity()
	for _, p := range parts {
		sum = c.Add(sum, p)
	}
	return sum
}

// msmChunk sums the points [lo, hi) block by block on one pooled
// arena, normalising once at the end.
func (c *Curve) msmChunk(scalars []*big.Int, at func(i int) Point, lo, hi int) Point {
	m := c.F.Mont()
	a := m.GetArena()
	defer a.Release()
	var o jacMontOps
	jacMontOpsIn(&o, m, a)
	size := min(msmBlock, hi-lo)
	tbl := make([]jacMontPoint, size*msmTable)
	for i := range tbl {
		tbl[i] = newJacMontPointIn(a)
	}
	digits := make([][]int8, size)
	sum, acc, two := newJacMontPointIn(a), newJacMontPointIn(a), newJacMontPointIn(a)
	negY := a.Elem()
	o.setInfinity(sum)
	for ; lo < hi; lo += size {
		blk, top := min(size, hi-lo), 0
		for j := 0; j < blk; j++ {
			digits[j] = digits[j][:0]
			p := at(lo + j)
			if !p.inf {
				digits[j] = ff.AppendWNAF(digits[j], scalars[lo+j], msmWindow)
			}
			if len(digits[j]) == 0 {
				continue
			}
			top = max(top, len(digits[j]))
			t := tbl[j*msmTable:]
			m.ToMont(t[0].X, p.X)
			m.ToMont(t[0].Y, p.Y)
			m.SetOne(t[0].Z)
			o.double(two, t[0])
			for i := 1; i < msmTable; i++ {
				o.add(t[i], t[i-1], two)
			}
		}
		o.setInfinity(acc)
		for i := top - 1; i >= 0; i-- {
			o.double(acc, acc)
			for j := 0; j < blk; j++ {
				if i >= len(digits[j]) || digits[j][i] == 0 {
					continue
				}
				d := digits[j][i]
				e := tbl[j*msmTable+int(max(d, -d))/2]
				if d < 0 {
					m.Neg(negY, e.Y)
					e.Y = negY
				}
				o.add(acc, acc, e)
			}
		}
		o.add(sum, sum, acc)
	}
	return o.fromJacMont(sum)
}
