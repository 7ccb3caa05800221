package bls381

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"testing"
)

var updateKernel = flag.Bool("update", false, "rewrite fe_mul.go from the generator in fe_gen_test.go")

const feKernelFile = "fe_mul.go"

const feKernelHeader = `// Code generated by fe_gen_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/bls381 -run TestFeKernelIsGenerated -update

package bls381

import "math/bits"

// The six-limb base-field kernel: one Montgomery product and one of each
// additive routine, straight-line and branch-free, on the typed constants
// feP0…feP5 and feN0 (fe_arith.go). Every result is fully reduced to
// [0, p), z may alias x and/or y (all loads precede the six stores), and
// operands must themselves be < p. feMul (fe_arith.go) runs feMulGo, or
// where ff.HasMULX() allows the same rounds in MULX/ADX assembly
// (fe_amd64.s, printed by ff's genMontAsm), with bit-identical results.
//
// feMulGo is word-serial (CIOS) Montgomery multiplication. Round i forms
// the six products x·yᵢ first — MULQ clobbers the flags — then folds
// them into the accumulator t as two bits.Add64 chains the compiler
// keeps as ADC chains: the low words at limbs 0…5, the high words one
// limb up. With m = t₀·n0, m·p is folded the same way, which zeroes t₀,
// and the high-word chain writes one limb down: t ← (t + x·yᵢ + m·p)/2⁶⁴.
//
// Bound: t < 2p after every round. It holds before round 0 (t = 0), and
// if t ≤ 2p−1 going in, then with x ≤ p−1 and yᵢ, m ≤ 2⁶⁴−1
//
//	t + x·yᵢ + m·p ≤ (2p−1) + (2⁶⁴−1)(p−1) + (2⁶⁴−1)p = 2⁶⁴(2p−1),
//
// so the quotient is ≤ 2p−1 again. p's top limb is < 2⁶¹ (three spare
// bits, TestFeKernelConstants), so 2p < 2³⁸² fits six words and the
// unshifted sum 2⁶⁴(2p−1) < 2⁴⁴⁶ fits seven: the accumulator is t0…t6,
// no chain drops a carry, and t6 is zero between rounds. One Sub64 chain
// of p and a select on its final borrow finish the reduction; the same
// tail closes feAdd (feDouble is feAdd(x, x)), whose sum is < 2p as
// well. feSub adds back p masked by its borrow and feNeg masks p − x by
// x ≠ 0, so 0 maps to 0 and not to p.
`

// genFeKernel emits fe_mul.go. Every addition and subtraction goes
// through chain, which prints dst[i], c = bits.op(a[i], b[i], c) limb by
// limb and names the final carry last ("_" where the header's bound says
// it is zero).
func genFeKernel() ([]byte, error) {
	var buf bytes.Buffer
	p := func(f string, a ...any) { fmt.Fprintf(&buf, f+"\n", a...) }
	names := func(f string, n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = fmt.Sprintf(f, i)
		}
		return s
	}
	chain := func(op string, dst, a, b []string, last string) {
		c := "0"
		for i := range dst {
			out := "c"
			if i == len(dst)-1 {
				out = last
			}
			p("%s, %s = bits.%s(%s, %s, %s)", dst[i], out, op, a[i], b[i], c)
			c = "c"
		}
	}
	t, h, l, s := names("t%d", 7), names("h%d", 6), names("l%d", 6), names("s%d", 6)
	x, y, z, mod := names("x[%d]", 6), names("y[%d]", 6), names("z[%d]", 6), names("feP%d", 6)
	with := func(list []string, last string) []string { return append(append([]string{}, list...), last) }
	// tail reduces t0…t5 < 2p once and stores: s = t − p, keep t on borrow.
	tail := func() {
		chain("Sub64", s, t[:6], mod, "c")
		p("c = -c")
		for i := range s {
			p("%s = %s ^ c&(%s^%s)", z[i], s[i], s[i], t[i])
		}
	}

	buf.WriteString(feKernelHeader)
	p("func feMulGo(z, x, y *fe) {")
	p("var t0, t1, t2, t3, t4, t5, t6, c, m uint64")
	p("var h0, h1, h2, h3, h4, h5, l0, l1, l2, l3, l4, l5, s0, s1, s2, s3, s4, s5 uint64")
	for i := 0; i < 6; i++ {
		p("// round %d", i)
		for j := 0; j < 6; j++ {
			lo := l[j]
			if i == 0 {
				lo = t[j] // t = 0: the low words are the accumulator
			}
			p("%s, %s = bits.Mul64(%s, %s)", h[j], lo, x[j], y[i])
		}
		if i > 0 {
			chain("Add64", t, with(t[:6], "0"), with(l, "0"), "_")
		}
		chain("Add64", t[1:], t[1:], h, "_")
		p("m = t0 * feN0")
		for j := 0; j < 6; j++ {
			p("%s, %s = bits.Mul64(m, %s)", h[j], l[j], mod[j])
		}
		chain("Add64", append([]string{"_"}, t[1:]...), t, with(l, "0"), "_")
		chain("Add64", t[:6], t[1:], h, "_")
	}
	tail()
	p("}\n")

	p("func feAdd(z, x, y *fe) {")
	p("var t0, t1, t2, t3, t4, t5, s0, s1, s2, s3, s4, s5, c uint64")
	chain("Add64", t[:6], x, y, "_")
	tail()
	p("}\n")

	p("func feDouble(z, x *fe) { feAdd(z, x, x) }\n")

	p("func feSub(z, x, y *fe) {")
	p("var t0, t1, t2, t3, t4, t5, c uint64")
	chain("Sub64", t[:6], x, y, "c")
	p("m := -c")
	chain("Add64", z, t[:6], names("feP%d&m", 6), "_")
	p("}\n")

	p("func feNeg(z, x *fe) {")
	p("var t0, t1, t2, t3, t4, t5, c uint64")
	p("m := x[0] | x[1] | x[2] | x[3] | x[4] | x[5]")
	p("m = -((m | -m) >> 63)")
	chain("Sub64", t[:6], mod, x, "_")
	for i := 0; i < 6; i++ {
		p("%s = %s & m", z[i], t[i])
	}
	p("}")
	return format.Source(buf.Bytes())
}

// TestFeKernelIsGenerated keeps fe_mul.go and its generator from
// drifting: the checked-in file must be exactly what genFeKernel prints.
func TestFeKernelIsGenerated(t *testing.T) {
	want, err := genFeKernel()
	if err != nil {
		t.Fatalf("generator output does not format: %v", err)
	}
	if *updateKernel {
		if err := os.WriteFile(feKernelFile, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(feKernelFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		line := 1 + bytes.Count(got[:commonPrefix(got, want)], []byte("\n"))
		t.Fatalf("%s differs from the generator's output, first at line %d: edit genFeKernel in fe_gen_test.go, "+
			"then go test ./internal/bls381 -run TestFeKernelIsGenerated -update", feKernelFile, line)
	}
}

func commonPrefix(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
