// Command benchmark is the repository's benchmark: four pinned
// workloads, the end-to-end metrics a user of the time server sees and
// an outside-in per-layer trace. BENCHMARK.json at the repository root
// is its contract; README.md in this directory defines every workload
// and metric.
//
//	benchmark -workload NAME -seed N -seconds 20 -trace 0|1   one run, one JSON result line
//	benchmark -seed N [-repeat K]                             every workload, untraced then traced
//	benchmark -compare A.json B.json                          apply the bounds to two result files
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// measureSeconds is the measured interval of every run that counts. The
// benchmark fixes it, so that any two result files compare like with
// like; BENCHMARK.json's run_seconds is the same number (the smoke test
// holds the two equal).
const measureSeconds = 20

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result line (default: run them all)")
	seed := flag.Int64("seed", 1, "seeds keys, plaintexts, label order and range offsets")
	seconds := flag.Int("seconds", measureSeconds, "the driver passes BENCHMARK.json's run_seconds here; no other value is accepted")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the end-to-end run")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and print how far the repeats differ")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for result.json, trace files and scratch data")
	flag.Parse()

	var err error
	switch {
	case *seconds != measureSeconds:
		err = fmt.Errorf("a run measures %d s, not %d: the run length is the benchmark's, not the caller's", measureSeconds, *seconds)
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case *workload != "":
		err = runOne(*workload, *seed, *trace != 0, *out)
	default:
		err = runAll(*seed, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one run of one workload in this process: heap, caches and
// peak RSS are the workload's own.
func runOne(workload string, seed int64, trace bool, out string) error {
	cfg := config{
		workload: workload, seed: seed, trace: trace, scale: 1,
		measure: measureSeconds * time.Second,
		warmup:  2 * time.Second,
		workDir: filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid())),
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if trace {
		probeFields(res)
		if err := writeJSON(filepath.Join(out, "trace-"+workload+".json"), res.spans); err != nil {
			return err
		}
	}
	line := finish(res)
	printResult(os.Stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "benchmark:", workload+":", e)
	}
	if err := writeJSON(filepath.Join(out, fmt.Sprintf("run-%s-trace%d.json", workload, b2i(trace))), res); err != nil {
		return err
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if !res.Correct {
		return fmt.Errorf("%s: a correctness or validity check failed", workload)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// finish holds the run to its catalogue — a per-layer metric the
// workload does not exercise reads 0, a number outside the catalogue
// becomes a diagnostic — and builds the result line, which carries the
// metrics every workload reports.
func finish(res *result) resultLine {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]lineMetric)}
	listed := make(map[string]bool)
	for _, def := range catalogue(res.Workload, res.Trace) {
		listed[def.Name] = true
		m := res.Metrics[def.Name]
		m.Unit = def.Unit
		res.Metrics[def.Name] = m
	}
	for _, def := range driverMetrics(res.Trace) {
		line.Metrics[def.Name] = lineMetric{Value: res.Metrics[def.Name].Value, Unit: def.Unit}
	}
	for name, m := range res.Metrics {
		if !listed[name] {
			res.Diag[name] = m
			delete(res.Metrics, name)
		}
	}
	return line
}

// printResult prints one line per metric: workload metric value unit n=samples.
func printResult(w io.Writer, res *result) {
	for _, def := range catalogue(res.Workload, res.Trace) {
		m := res.Metrics[def.Name]
		fmt.Fprintf(w, "%s %s %.4f %s n=%d\n", res.Workload, def.Name, m.Value, m.Unit, m.N)
	}
	names := make([]string, 0, len(res.Diag))
	for name := range res.Diag {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Diag[name]
		fmt.Fprintf(w, "%s diag.%s %.4f %s n=%d\n", res.Workload, name, m.Value, m.Unit, m.N)
	}
	fmt.Fprintf(w, "%s ops_attempted %d\n%s ops_failed %d\n", res.Workload, res.Attempted, res.Workload, res.Failed)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// environment is the header of result.json.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func readEnvironment(seed int64) environment {
	env := environment{Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: measureSeconds}
	if head, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(head))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// resultFile is benchmark/out/result.json: every run of a whole set.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

// runAll runs every workload, untraced then traced, each in a process
// of its own (this binary again), `repeat` times over.
func runAll(seed int64, repeat int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Env: readEnvironment(seed)}
	failed := false
	for r := 0; r < repeat; r++ {
		for _, def := range workloadDefs {
			for _, trace := range []bool{false, true} {
				cmd := exec.Command(self, "-workload", def.name, "-seed", fmt.Sprint(seed),
					"-trace", fmt.Sprint(b2i(trace)), "-out", out)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				// Only a run that came out correct is in the set: a failed
				// one is reported and fails the set.
				if err := cmd.Run(); err != nil {
					failed = true
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace %v): %v\n", def.name, trace, err)
					continue
				}
				var res result
				data, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("run-%s-trace%d.json", def.name, b2i(trace))))
				if err != nil {
					return err
				}
				if err := json.Unmarshal(data, &res); err != nil {
					return err
				}
				file.Runs = append(file.Runs, &res)
			}
		}
	}
	if err := writeJSON(filepath.Join(out, "result.json"), file); err != nil {
		return err
	}
	printOverhead(os.Stdout, file)
	if repeat > 1 {
		printRepeats(os.Stdout, file)
	}
	if failed {
		return fmt.Errorf("at least one run failed")
	}
	return nil
}

// printOverhead prints, per workload, what tracing cost: the traced
// run's median operation against the untraced run's, both as measured.
func printOverhead(w io.Writer, file resultFile) {
	for _, def := range workloadDefs {
		plain := values(file, def.name, false, "raw_op_p50_ms")
		traced := values(file, def.name, true, "raw_op_p50_ms")
		if len(plain) > 0 && len(traced) > 0 {
			fmt.Fprintf(w, "%s trace.overhead_ratio %.4f ratio (traced %.4f ms / untraced %.4f ms)\n",
				def.name, median(traced)/median(plain), median(traced), median(plain))
		}
	}
}

// values collects one metric or diagnostic of one workload over the
// file's runs.
func values(file resultFile, workload string, trace bool, name string) []float64 {
	var vals []float64
	for _, r := range file.Runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		m, ok := r.Metrics[name]
		if !ok {
			m, ok = r.Diag[name]
		}
		if ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// printRepeats prints, per workload and end-to-end metric, how far the
// repeats of one set differ against the metric's bound.
func printRepeats(w io.Writer, file resultFile) {
	for _, def := range workloadDefs {
		for _, m := range endToEnd {
			if !m.reportedOn(def.name) {
				continue
			}
			vals := values(file, def.name, false, m.Name)
			verdict := "ok"
			if spread(vals) > m.Bound {
				verdict = "beyond bound"
			}
			fmt.Fprintf(w, "%s %s repeats=%d median=%.4f %s (max-min)/median=%.4f bound=%.2f %s\n",
				def.name, m.Name, len(vals), median(vals), m.Unit, spread(vals), m.Bound, verdict)
		}
	}
}

// compareFiles applies every end-to-end metric's bound, on the workloads
// it is reported on, to the medians of two result files: A is the base,
// B the candidate.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files")
	}
	var files [2]resultFile
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := files[0].Env, files[1].Env
	if a.Seconds != b.Seconds {
		return fmt.Errorf("%s measured %d s a run, %s %d s: not comparable", paths[0], a.Seconds, paths[1], b.Seconds)
	}
	out := bufio.NewWriter(w)
	defer out.Flush()
	if a.Seed != b.Seed {
		fmt.Fprintf(out, "note: the seeds differ (A %d, B %d): the inputs are not the same\n", a.Seed, b.Seed)
	}
	regressed := false
	for _, def := range workloadDefs {
		for _, m := range endToEnd {
			a, b := values(files[0], def.name, false, m.Name), values(files[1], def.name, false, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			verdict := verdictOf(median(a), median(b), max(spread(a), spread(b)), m.Bound, m.HigherIsBetter)
			regressed = regressed || verdict == "regressed"
			fmt.Fprintf(out, "%s %s A=%.4f B=%.4f %s B/A=%.4f (base A=%.4f, n=%d/%d) bound=%.2f %s\n",
				def.name, m.Name, median(a), median(b), m.Unit, median(b)/median(a), median(a), len(a), len(b), m.Bound, verdict)
		}
	}
	if regressed {
		out.Flush()
		return fmt.Errorf("at least one metric regressed beyond its bound")
	}
	return nil
}

// verdictOf judges candidate b against base a: unresolved when either
// side's own repeats spread wider than the bound, regressed when b is
// worse than a by more than the bound.
func verdictOf(a, b, spread, bound float64, higherIsBetter bool) string {
	worse := (b - a) / a
	if higherIsBetter {
		worse = (a - b) / a
	}
	switch {
	case spread > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	}
	return "ok"
}
