package curve

import (
	"math/big"
	"runtime"

	"timedrelease/internal/ff"
	"timedrelease/internal/parallel"
)

// Scalar multiplication is Straus's interleaving over width-4 NAFs: per
// point a table of the odd multiples P, 3P, 5P, 7P, then ONE doubling
// chain shared by a block of points, adding only where a digit is
// non-zero (1 bit in 5). Width 5 measures the same at 128-bit scalars
// for twice the table. ScalarMult is the walk on one point; MSM's chunks
// reuse one block of msmBlock tables, so a 65 536-update page holds what
// a 32-update one does; at 32 the shared chain is ~7 % of a block's
// multiplications.
const (
	msmWindow = 4
	msmTable  = 1 << (msmWindow - 2)
	msmBlock  = 32
)

// scalarDigits sizes ScalarMult's stack digit buffer: a width-4 NAF of
// any scalar up to 2048 bits, the widest Type-1 field. Wider scalars
// are walked too, from a heap buffer.
const scalarDigits = 2049

// ScalarMult returns k·p. Scalars may be any non-negative integer; they
// are used as-is (callers working in the subgroup reduce mod q), and p
// may be any curve point. It is the one-point Straus walk on the
// calling goroutine: the digits on the stack, every temporary from a
// pooled arena, one inversion at the end.
func (c *Curve) ScalarMult(k *big.Int, p Point) Point {
	if k.Sign() < 0 {
		panic("curve: negative scalar")
	}
	if k.Sign() == 0 || !p.finite {
		return Infinity()
	}
	var buf [scalarDigits]int8
	digits := ff.AppendWNAF(buf[:0], k, msmWindow)
	m := c.F.Mont()
	a := m.GetArena()
	defer a.Release()
	var o jacMontOps
	jacMontOpsIn(&o, m, a)
	var tbl [msmTable]jacMontPoint
	for i := range tbl {
		tbl[i] = newJacMontPointIn(a)
	}
	acc := newJacMontPointIn(a)
	x, y := c.limbs(p)
	o.oddMultiples(tbl[:], x, y, acc)
	o.setInfinity(acc)
	ff.Straus([][]int8{digits}, func() { o.double(acc, acc) }, func(_ int, d int8) { o.addDigit(acc, tbl[:], d) })
	return o.fromJacMont(acc)
}

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
	sum, acc := newJacMontPointIn(a), newJacMontPointIn(a)
	o.setInfinity(sum)
	for ; lo < hi; lo += size {
		blk := min(size, hi-lo)
		for j := 0; j < blk; j++ {
			digits[j] = digits[j][:0]
			p := at(lo + j)
			if p.finite {
				digits[j] = ff.AppendWNAF(digits[j], scalars[lo+j], msmWindow)
			}
			if len(digits[j]) != 0 {
				x, y := c.limbs(p)
				o.oddMultiples(tbl[j*msmTable:], x, y, acc)
			}
		}
		o.setInfinity(acc)
		ff.Straus(digits[:blk], func() { o.double(acc, acc) }, func(j int, d int8) { o.addDigit(acc, tbl[j*msmTable:], d) })
		o.add(sum, sum, acc)
	}
	return o.fromJacMont(sum)
}

// oddMultiples sets t[0…msmTable) = P, 3P, 5P, 7P for the affine,
// non-identity P = (x, y); two is scratch for 2P.
func (o *jacMontOps) oddMultiples(t []jacMontPoint, x, y ff.MontElem, two jacMontPoint) {
	m := o.m
	m.Set(t[0].X, x)
	m.Set(t[0].Y, y)
	m.SetOne(t[0].Z)
	o.double(two, t[0])
	for i := 1; i < msmTable; i++ {
		o.add(t[i], t[i-1], two)
	}
}

// addDigit adds d·P to acc for an odd digit d, row holding P's odd
// multiples: a negative digit adds the entry with Y negated.
func (o *jacMontOps) addDigit(acc jacMontPoint, row []jacMontPoint, d int8) {
	e := row[max(d, -d)/2]
	if d < 0 {
		o.m.Neg(o.negY, e.Y)
		e.Y = o.negY
	}
	o.add(acc, acc, e)
}
