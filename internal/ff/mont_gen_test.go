package ff

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"strings"
	"testing"
)

var updateKernel = flag.Bool("update", false, "rewrite mont_kernel.go from the generator in mont_gen_test.go")

// montKernelWidths is the per-limb-count decision: the limb counts that
// get a generated kernel. 3 is Test160 (the tier-1 suite and
// broadcast-test160), 8 is SS512 (coldstart-ss512). A width joins the
// list only together with a workload that shows it is needed; every
// other width runs the loop forms in mont.go.
var montKernelWidths = []int{3, 8}

const montKernelFile = "mont_kernel.go"

const montKernelHeader = `// Code generated by mont_gen_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/ff -run TestMontKernelIsGenerated -update

package ff

import "math/bits"

// Straight-line Montgomery kernels for the limb counts in
// montKernelWidths (mont_gen_test.go), and the Mont methods that pick a
// kernel or the loop form in mont.go by limb count alone. p and n0 come
// from the context, so one kernel serves every odd modulus of its width.
// Operands must be < p; every result is fully reduced to [0, p), and z
// may alias x and/or y (all loads precede the stores).
//
// montMulN is word-serial (CIOS) Montgomery multiplication. Round i
// forms the n products x·yᵢ first, then folds them into the accumulator
// t as two bits.Add64 chains: the low words at limbs 0…n−1, whose carry
// joins the top high word (at most 2⁶⁴−2, so it cannot wrap), then the
// high words one limb up, whose carry is t(n+1). With m = t₀·n0, m·p is
// folded the same way, which zeroes t₀, and its high-word chain writes
// one limb down: t ← (t + x·yᵢ + m·p)/2⁶⁴.
//
// Bound: t < 2p after every round, for ANY odd p < 2^(64n). It holds
// before round 0 (t = 0), and if t ≤ 2p−1 going in, then with x ≤ p−1
// and yᵢ, m ≤ 2⁶⁴−1
//
//	t + x·yᵢ + m·p ≤ (2p−1) + (2⁶⁴−1)(p−1) + (2⁶⁴−1)p = 2⁶⁴(2p−1),
//
// so the quotient is ≤ 2p−1 again. p may fill all n words (SS512's top
// bit is set), so t needs n+1 words between rounds (t(n) ≤ 1) and the
// unshifted sum n+2: the accumulator is t0…t(n+1) and no chain drops a
// carry. One Sub64 chain of p over t0…t(n−1) that borrows from t(n), and
// a select on the final borrow, finish the reduction; the same tail
// closes montAddN, whose sum is < 2p as well (Double is Add(x, x)).
// montSubN adds back p masked by its borrow, all limbs masked before the
// add chain starts (an AND inside it would clobber the carry flag and
// the compiler would redo the chain), and montNegN masks p − x by x ≠ 0,
// so 0 maps to 0 and not to p.
`

// montOps are the Mont methods the generated file dispatches: the
// method's doc comment, its parameters, the kernel's operands and the
// loop form it falls back to.
var montOps = []struct {
	name, doc, params string
	args              []string
}{
	{"Mul", "// Mul sets dst = x·y·R⁻¹ mod p, the Montgomery product: for Montgomery-form\n// operands, the Montgomery form of the field product. dst may alias x and/or y.",
		"dst, x, y MontElem", []string{"dst", "x", "y"}},
	{"Add", "// Add sets dst = x + y mod p; dst may alias x and/or y.", "dst, x, y MontElem", []string{"dst", "x", "y"}},
	{"Sub", "// Sub sets dst = x − y mod p; dst may alias x and/or y.", "dst, x, y MontElem", []string{"dst", "x", "y"}},
	{"Neg", "// Neg sets dst = −x mod p (0 for x = 0); dst may alias x.", "dst, x MontElem", []string{"dst", "x"}},
}

// genMontKernel emits mont_kernel.go for the given widths. As in
// bls381's genFeKernel, every addition and subtraction goes through
// chain, which prints dst[i], c = bits.op(a[i], b[i], c) limb by limb
// and names the final carry last ("_" where the header's bound says it
// is zero).
func genMontKernel(widths []int) ([]byte, error) {
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
	decl := func(lists ...[]string) {
		var all []string
		for _, l := range lists {
			all = append(all, l...)
		}
		p("var %s uint64", strings.Join(all, ", "))
	}

	buf.WriteString(montKernelHeader)
	for _, op := range montOps {
		p("\n%s\nfunc (m *Mont) %s(%s) {", op.doc, op.name, op.params)
		p("switch m.n {")
		for _, n := range widths {
			arr := fmt.Sprintf("(*[%d]uint64)", n)
			var args []string
			for _, a := range op.args {
				args = append(args, arr+"("+a+")")
			}
			args = append(args, arr+"(m.p)")
			if op.name == "Mul" {
				args = append(args, "m.n0")
			}
			p("case %d:", n)
			p("mont%s%d(%s)", op.name, n, strings.Join(args, ", "))
		}
		p("default:")
		p("m.%sLoop(%s)", strings.ToLower(op.name), strings.Join(op.args, ", "))
		p("}\n}")
	}

	for _, n := range widths {
		t, h, l, s := names("t%d", n+2), names("h%d", n), names("l%d", n), names("s%d", n)
		x, y, z, mod := names("x[%d]", n), names("y[%d]", n), names("z[%d]", n), names("p[%d]", n)
		// tail reduces t0…t(n) < 2p once and stores: s = t − p, keep t
		// where that borrows.
		tail := func() {
			chain("Sub64", s, t[:n], mod, "c")
			p("_, c = bits.Sub64(%s, 0, c)", t[n])
			p("c = -c")
			for i := range s {
				p("%s = %s ^ c&(%s^%s)", z[i], s[i], s[i], t[i])
			}
		}
		arr := fmt.Sprintf("*[%d]uint64", n)

		p("\nfunc montMul%d(z, x, y, p %s, n0 uint64) {", n, arr)
		decl(t, []string{"c", "m"})
		decl(h, l, s)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				lo := l[j]
				if i == 0 {
					lo = t[j] // t = 0: the low words are the accumulator
				}
				p("%s, %s = bits.Mul64(%s, %s)", h[j], lo, x[j], y[i])
			}
			if i > 0 {
				chain("Add64", t[:n], t[:n], l, "c")
				p("%s += c", h[n-1])
			}
			chain("Add64", t[1:n+1], t[1:n+1], h, t[n+1])
			p("m = t0 * n0")
			for j := 0; j < n; j++ {
				p("%s, %s = bits.Mul64(m, %s)", h[j], l[j], mod[j])
			}
			chain("Add64", append([]string{"_"}, t[1:n]...), t[:n], l, "c")
			p("%s += c", h[n-1])
			chain("Add64", t[:n], t[1:n+1], h, "c")
			p("%s = %s + c", t[n], t[n+1])
		}
		tail()
		p("}")

		p("\nfunc montAdd%d(z, x, y, p %s) {", n, arr)
		decl(t[:n+1], s, []string{"c"})
		chain("Add64", t[:n], x, y, t[n])
		tail()
		p("}")

		p("\nfunc montSub%d(z, x, y, p %s) {", n, arr)
		decl(t[:n], []string{"c"})
		chain("Sub64", t[:n], x, y, "c")
		p("m := -c")
		p("q := [%d]uint64{%s}", n, strings.Join(names("p[%d] & m", n), ", "))
		chain("Add64", z, t[:n], names("q[%d]", n), "_")
		p("}")

		p("\nfunc montNeg%d(z, x, p %s) {", n, arr)
		decl(t[:n], []string{"c"})
		p("m := %s", strings.Join(x, " | "))
		p("m = -((m | -m) >> 63)")
		chain("Sub64", t[:n], mod, x, "_")
		for i := 0; i < n; i++ {
			p("%s = %s & m", z[i], t[i])
		}
		p("}")
	}
	return format.Source(buf.Bytes())
}

// TestMontKernelIsGenerated keeps mont_kernel.go and its generator from
// drifting: the checked-in file must be exactly what genMontKernel
// prints for montKernelWidths.
func TestMontKernelIsGenerated(t *testing.T) {
	want, err := genMontKernel(montKernelWidths)
	if err != nil {
		t.Fatalf("generator output does not format: %v", err)
	}
	if *updateKernel {
		if err := os.WriteFile(montKernelFile, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(montKernelFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s differs from the generator's output, first at line %d: edit genMontKernel in mont_gen_test.go, "+
			"then go test ./internal/ff -run TestMontKernelIsGenerated -update", montKernelFile, 1+bytes.Count(got[:n], []byte("\n")))
	}
}
