package ff

import (
	"math/big"
	"slices"
)

// AppendWNAF appends the width-w NAF of the non-negative k, a *big.Int
// or little-endian 64-bit limbs, to dst, least significant digit
// first: digits zero or odd in (−2^(w−1), 2^(w−1)), non-zero ones at
// least w−1 zeros apart, the last one non-zero. It is the tree's one
// signed-window recoder (2 ≤ w ≤ 8); into a reused dst it allocates
// nothing, nor for a big.Int up to 2048 bits.
func AppendWNAF[K *big.Int | []uint64](dst []int8, k K, w uint) []int8 {
	var buf [maxMontLimbs]uint64
	l, ok := any(k).([]uint64)
	if !ok {
		x := any(k).(*big.Int)
		if x.Sign() < 0 {
			panic("ff: negative scalar")
		}
		size := (x.BitLen() + 63) / 64
		if l = buf[:min(size, len(buf))]; size > len(buf) {
			l = make([]uint64, size)
		}
		limbsFromBig(l, x)
	}
	bit := func(i int) uint64 {
		q := min(i/64, len(l)-1) // past the top limb the shift reads 0
		return l[q] >> (i - 64*q) & 1
	}
	var zeros [8]int8
	n, start := 64*len(l), len(dst)
	dst, carry := slices.Grow(dst, n+1), uint64(0)
	for i := 0; i < n || carry != 0; {
		if b := bit(i) + carry; b != 1 { // what is left of k is even
			carry = b >> 1
			dst = append(dst, 0)
			i++
			continue
		}
		v := carry
		for j := 0; j < int(w); j++ {
			v += bit(i+j) << j
		}
		carry = v >> (w - 1) // v ≥ 2^(w−1): take v − 2^w and carry one
		dst = append(dst, int8(int(v)-int(carry<<w)))
		if i += int(w); i < n || carry != 0 {
			dst = append(dst, zeros[:w-1]...)
		}
	}
	for len(dst) > start && dst[len(dst)-1] == 0 { // k's top limb's leading zeros
		dst = dst[:len(dst)-1]
	}
	return dst
}

// Straus walks one doubling chain over several signed-digit strings,
// least significant digit first: from the top position down, dbl()
// once, then add(j, d) for each non-zero digit d of string j there.
// Both backends' ladders, MSMs and unitary exponentiations run on it
// through closures over their own stacks, where a method call through
// a type parameter would move the operands to the heap.
func Straus(digits [][]int8, dbl func(), add func(j int, d int8)) {
	top := 0
	for _, d := range digits {
		top = max(top, len(d))
	}
	for i := top - 1; i >= 0; i-- {
		dbl()
		for j, dj := range digits {
			if i < len(dj) && dj[i] != 0 {
				add(j, dj[i])
			}
		}
	}
}
