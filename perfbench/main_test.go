package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig runs set-up in-process: the test binary cannot act as the
// --setup-child executable.
func smokeConfig(t *testing.T, w workload, secs float64) runConfig {
	dir := t.TempDir()
	return runConfig{seed: 7, seconds: secs, dir: dir,
		setup: func(i int) (float64, error) { return w.setupOnce(setupSeed(7, i), filepath.Join(dir, "setup")) }}
}

// checkRun runs a workload untraced and traced and checks that every metric
// is reported and that no operation failed, bit identity of the traced flow
// included.
func checkRun(t *testing.T, w workload, secs float64) {
	t.Helper()
	tl := &tally{}
	m, err := w.measure(smokeConfig(t, w, secs), tl)
	if err != nil || tl.failed != 0 {
		t.Fatalf("measure: err=%v, %d of %d operations failed", err, tl.failed, tl.attempted)
	}
	for _, d := range endToEnd {
		got, ok := m[d.name]
		if !ok || got.Unit != d.unit || !(got.Value > 0) {
			t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", d.name, got, ok, d.unit)
		}
	}
	if len(m) != len(endToEnd) {
		t.Errorf("measure reported %d metrics, want %d", len(m), len(endToEnd))
	}

	tl = &tally{}
	m, err = w.trace(smokeConfig(t, w, secs), tl)
	if err != nil || tl.failed != 0 {
		t.Fatalf("trace: err=%v, %d of %d operations failed", err, tl.failed, tl.attempted)
	}
	for _, d := range perLayer {
		if got, ok := m[d.name]; !ok || got.Unit != d.unit {
			t.Errorf("per-layer %s = %+v (present %v), want unit %s", d.name, got, ok, d.unit)
		}
	}
	if len(m) != len(perLayer) {
		t.Errorf("trace reported %d metrics, want %d", len(m), len(perLayer))
	}
	if c := m["trace.coverage"].Value; c < 0.95 || c > 1.001 {
		t.Errorf("trace.coverage = %v, want within [0.95, 1]", c)
	}
}

func TestSmokeE1(t *testing.T) {
	f := e1Spec()
	f.steps, f.ckptEvery, f.flowSecs = 24, 10, 1
	checkRun(t, f.workload(), 1)
}

func TestSmokeCPUDRAM(t *testing.T) {
	f := cpudramSpec()
	f.steps, f.flowSecs = 3, 1
	checkRun(t, f.workload(), 1)
}

func TestSmokeService(t *testing.T) {
	checkRun(t, defaultServiceSpec().workload(), 1.5)
}

func TestCheckCornersRejects(t *testing.T) {
	good := []float64{60, 65, 70, 75, 80, 85, 90, 95}
	if err := checkCorners(good, 75); err != nil {
		t.Fatalf("rising corners rejected: %v", err)
	}
	flat := append([]float64(nil), good...)
	flat[5] = flat[4]
	for name, c := range map[string]struct {
		peaks   []float64
		nominal float64
	}{
		"not rising":      {flat, 75},
		"nominal differs": {good, 75.5},
		"short":           {good[:7], 75},
	} {
		if err := checkCorners(c.peaks, c.nominal); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"--workload", "nope", "--workdir", t.TempDir()}, &out); code == 0 {
		t.Fatalf("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("unknown workload printed %q", out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: the same
// workloads, and the same metrics with the same units, directions and
// bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bench struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bench); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(bench.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(ws))
	}
	for i, w := range ws {
		if bench.Workloads[i].Name != w.name || bench.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %q / %q", i, bench.Workloads[i], w.name, w.why)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bench.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := bench.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound == nil || *e.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bench.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		e := bench.PerLayer[i]
		if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || e.Bound != nil {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, e, d)
		}
	}
}
