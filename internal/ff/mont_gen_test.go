package ff

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"slices"
	"strings"
	"testing"
)

var updateKernel = flag.Bool("update", false, "rewrite mont_kernel.go, mont_amd64.s and bls381's fe_amd64.s from the generators in mont_gen_test.go")

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
// kernel or the loop form in mont.go by limb count alone; at the widths
// in montAsmWidths, Mul runs the MULX/ADX assembly in mont_amd64.s
// instead where useMULX (CPUID, read once at init) allows, and the Go
// kernel here everywhere else. p and n0 come from the context, so one
// kernel serves every odd modulus of its width.
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
			if op.name == "Mul" && slices.Contains(montAsmWidths, n) {
				p("if useMULX {")
				p("montMul%dMULX(%s)", n, strings.Join(args, ", "))
				p("} else {")
				p("montMul%d(%s)", n, strings.Join(args, ", "))
				p("}")
				continue
			}
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

// montAsmWidths are the kernel widths that also get a MULX/ADX
// Montgomery product in mont_amd64.s, which Mul runs instead of the Go
// montMulN when useMULX is set. 8 is SS512, whose coldstart-ss512 page
// spends most of its CPU in that product; 3 (Test160) keeps the Go
// kernel alone.
var montAsmWidths = []int{8}

const montAsmFile = "mont_amd64.s"

const montAsmHeader = `// Code generated by mont_gen_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/ff -run TestMontKernelIsGenerated -update

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-16
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	RET

// montMulNMULX is montMulN (mont_kernel.go) on BMI2's MULX and ADX's
// ADCX/ADOX, for the widths in montAsmWidths: the same CIOS rounds, the
// same accumulator, bit-identical results. DX holds the multiplier (yᵢ,
// then m = t₀·n0); DI points at x, then at p (reloaded from the frame
// each half-round, which frees a register); AX and BX take each
// product's low and high word. The n+2 accumulator words t0…t(n+1) live
// in CX, SI, R8…R15, and the generator renames instead of shifting:
// after a reduction the register that held t₀ (now zero) becomes the
// new t(n+1). t(n+1) is zero at the start of every half-round, and
// serves as the zero operand that closes the first. Each half-round
// folds the n products into t on two independent carry chains, the low
// words on ADOX (OF) into t0…t(n−1), the high words on ADCX (CF) into
// t1…t(n); the OF carry out of t(n−1) joins the top high word (≤ 2⁶⁴−2)
// before that word enters the CF chain, and the CF carry lands in
// t(n+1). The sum is the one montMulN forms, so its t < 2p bound holds.
// The tail stores t to z, subtracts p in place and takes the stored
// words back by CMOV where that borrows. All loads of x and y precede
// the first store, so z may alias them; BP is not touched. R14 and R15
// are plain scratch in ABI0 code: the ABIInternal wrapper restores g,
// and no global is read.
`

// montAsmKernel is one product genMontAsm prints: its Go symbol, its
// limb count, and the pointer type its Go declaration gives z, x, y and
// p.
type montAsmKernel struct {
	name string
	n    int
	ptr  string
}

// ffAsmKernels are ff's own kernels, one per width in montAsmWidths.
func ffAsmKernels() []montAsmKernel {
	var ks []montAsmKernel
	for _, n := range montAsmWidths {
		ks = append(ks, montAsmKernel{fmt.Sprintf("montMul%dMULX", n), n, fmt.Sprintf("*[%d]uint64", n)})
	}
	return ks
}

// feAsmFile is bls381's base-field product: the same code at six limbs
// under bls381's names, which feMul (bls381's fe_arith.go) runs where
// HasMULX allows.
const feAsmFile = "../bls381/fe_amd64.s"

const feAsmHeader = `// Code generated by internal/ff/mont_gen_test.go; DO NOT EDIT.
// Regenerate: go test ./internal/ff -run TestMontKernelIsGenerated -update

#include "textflag.h"

// feMulMULX is feMulGo (fe_mul.go) on BMI2's MULX and ADX's ADCX/ADOX,
// bit-identical to it: the six-limb instance of ff's montMulNMULX,
// printed by the same generator (genMontAsm), whose header in
// internal/ff/mont_amd64.s describes the rounds, the registers and why z
// may alias x and y. p is &feModulus, so no global is read.
`

// genMontAsm emits an assembly file: header, then one MULX/ADX product
// per kernel. n+2 accumulator registers must fit beside DX, DI, AX and
// BX, so n ≤ 8.
func genMontAsm(header string, kernels []montAsmKernel) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(header)
	ins := func(f string, a ...any) { fmt.Fprintf(&buf, "\t"+f+"\n", a...) }
	mem := func(reg string, j int) string {
		if j == 0 {
			return "(" + reg + ")"
		}
		return fmt.Sprintf("%d(%s)", 8*j, reg)
	}
	pool := []string{"CX", "SI", "R8", "R9", "R10", "R11", "R12", "R13", "R14", "R15"}
	for _, k := range kernels {
		n := k.n
		if n+2 > len(pool) {
			return nil, fmt.Errorf("width %d: %d accumulator words do not fit in %d registers", n, n+2, len(pool))
		}
		t := slices.Clone(pool[:n+2])
		// fold adds DX·src[0…n−1] into t; zero reads 0 until the last
		// instruction.
		fold := func(src, zero string) {
			ins("XORQ AX, AX")
			for j := 0; j < n; j++ {
				ins("MULXQ %s, AX, BX", mem(src, j))
				ins("ADOXQ AX, %s", t[j])
				if j < n-1 {
					ins("ADCXQ BX, %s", t[j+1])
				}
			}
			ins("ADOXQ %s, BX", zero)
			ins("ADCXQ BX, %s", t[n])
			ins("ADCXQ %s, %s", zero, t[n+1])
		}
		// reduce adds m·p, which zeroes t₀, and renames t one word down.
		reduce := func() {
			ins("MOVQ n0+32(FP), DX")
			ins("IMULQ %s, DX", t[0])
			ins("MOVQ p+24(FP), DI")
			fold("DI", t[0])
			t = append(t[1:], t[0])
		}

		fmt.Fprintf(&buf, "\n// func %s(z, x, y, p %s, n0 uint64)\n", k.name, k.ptr)
		fmt.Fprintf(&buf, "TEXT ·%s(SB), NOSPLIT, $0-40\n", k.name)
		for i := 0; i < n; i++ {
			ins("MOVQ y+16(FP), DX")
			ins("MOVQ %s, DX", mem("DX", i))
			ins("MOVQ x+8(FP), DI")
			if i > 0 {
				fold("DI", t[n+1])
				reduce()
				continue
			}
			// Round 0 starts from t = 0: the products are the accumulator.
			ins("XORQ %s, %s", t[n+1], t[n+1])
			ins("MULXQ (DI), %s, %s", t[0], t[1])
			for j := 1; j < n; j++ {
				ins("MULXQ %s, AX, %s", mem("DI", j), t[j+1])
				ins("ADCXQ AX, %s", t[j])
			}
			ins("ADCXQ %s, %s", t[n+1], t[n])
			reduce()
		}
		ins("MOVQ z+0(FP), DI")
		ins("MOVQ p+24(FP), AX")
		for j := 0; j < n; j++ {
			ins("MOVQ %s, %s", t[j], mem("DI", j))
		}
		ins("SUBQ (AX), %s", t[0])
		for j := 1; j < n; j++ {
			ins("SBBQ %s, %s", mem("AX", j), t[j])
		}
		ins("SBBQ $0, %s", t[n])
		for j := 0; j < n; j++ {
			ins("CMOVQCS %s, %s", mem("DI", j), t[j])
		}
		for j := 0; j < n; j++ {
			ins("MOVQ %s, %s", t[j], mem("DI", j))
		}
		ins("RET")
	}
	return buf.Bytes(), nil
}

// TestMontKernelIsGenerated keeps mont_kernel.go, mont_amd64.s and
// bls381's fe_amd64.s from drifting from their generators: each
// checked-in file must be exactly what genMontKernel or genMontAsm
// prints.
func TestMontKernelIsGenerated(t *testing.T) {
	goSrc, err := genMontKernel(montKernelWidths)
	if err != nil {
		t.Fatalf("generator output does not format: %v", err)
	}
	asmSrc, err := genMontAsm(montAsmHeader, ffAsmKernels())
	if err != nil {
		t.Fatal(err)
	}
	feSrc, err := genMontAsm(feAsmHeader, []montAsmKernel{{"feMulMULX", 6, "*fe"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		want []byte
	}{{montKernelFile, goSrc}, {montAsmFile, asmSrc}, {feAsmFile, feSrc}} {
		if *updateKernel {
			if err := os.WriteFile(f.name, f.want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(f.name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.want) {
			n := 0
			for n < len(got) && n < len(f.want) && got[n] == f.want[n] {
				n++
			}
			t.Errorf("%s differs from the generator's output, first at line %d: edit mont_gen_test.go, "+
				"then go test ./internal/ff -run TestMontKernelIsGenerated -update", f.name, 1+bytes.Count(got[:n], []byte("\n")))
		}
	}
}
