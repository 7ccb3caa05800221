package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, trace: trace, scale: 6,
		measure: slowdown * time.Second, warmup: slowdown * 200 * time.Millisecond,
		workDir: t.TempDir(),
	}
}

// TestWorkloadsPrintTheContract runs every workload, untraced and
// traced, at reduced size and holds the metrics of the result line to
// BENCHMARK.json: same names, same units, nothing more.
func TestWorkloadsPrintTheContract(t *testing.T) {
	var spec struct {
		RunSeconds int                     `json:"run_seconds"`
		Workloads  []struct{ Name string } `json:"workloads"`
		EndToEnd   []struct {
			metricDef
			Better string
			Bound  float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != measureSeconds {
		t.Errorf("BENCHMARK.json runs %d s, the program measures %d s", spec.RunSeconds, measureSeconds)
	}
	// The bounds -compare applies are the ones the driver applies.
	var everywhere []endToEndDef
	for _, d := range endToEnd {
		if d.Workloads == nil {
			everywhere = append(everywhere, d)
		}
	}
	if len(spec.EndToEnd) != len(everywhere) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program reports %d on every workload", len(spec.EndToEnd), len(everywhere))
	}
	for i, m := range spec.EndToEnd {
		d := everywhere[i]
		if m.metricDef != d.metricDef || m.Bound != d.Bound || (m.Better == "higher") != d.HigherIsBetter {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, m, d)
		}
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadDefs[i].name)
		}
	}
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(smokeConfig(t, def.name, trace))
			if err != nil {
				t.Fatalf("%s (trace %v): %v", def.name, trace, err)
			}
			if trace {
				probeFields(res)
			}
			line := finish(res)
			if slowdown > 1 && len(res.Errors) == 1 && strings.HasPrefix(res.Errors[0], "generator ran") {
				line.Correct = true // the race detector's slowdown, not the system's
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d: %v",
					def.name, trace, line.Correct, line.Attempted, line.Failed, res.Errors)
			}
			want := spec.PerLayer
			if !trace {
				want = nil
				for _, m := range spec.EndToEnd {
					want = append(want, m.metricDef)
				}
				// The workload's own bounded metrics are printed, never 0,
				// and kept in the per-run JSON.
				for _, d := range endToEnd {
					if d.Workloads != nil && d.reportedOn(def.name) && res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics printed, BENCHMARK.json lists %d", def.name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s is not printed", def.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s is printed in %s, listed in %s", def.name, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, m.Name, got.Value)
				}
			}
			for name := range res.Diag {
				if trace && strings.Contains(name, ".") && !strings.HasPrefix(name, "window") {
					t.Errorf("%s: layer span %s is in no per-layer metric", def.name, name)
				}
			}
			if trace {
				if share := line.Metrics["trace.unattributed_share"].Value; share >= 0.25 {
					t.Errorf("%s: %.2f of the operation is unattributed", def.name, share)
				}
			}
		}
	}
}

// TestTamperedUpdateFailsTheRun serves every update with one byte
// flipped: the run must not come out correct.
func TestTamperedUpdateFailsTheRun(t *testing.T) {
	cfg := smokeConfig(t, "message-bls12381", false)
	cfg.wrapHandler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v1/update/") {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			body[len(body)-1] ^= 0x01
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	res, err := runWorkload(cfg)
	if err == nil && res.Correct {
		t.Fatal("a run over tampered updates came out correct")
	}
}
