package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tap25d"
	"tap25d/internal/systems"
)

// TestDeterministicAcrossGOMAXPROCS: the parallel sparse kernels split rows
// over as many workers as GOMAXPROCS allows, and every row is still computed
// serially in a fixed order, so placement must print the same results and
// counters at any GOMAXPROCS. Both cases run multigrid-preconditioned CG on
// hierarchies whose fine levels are large enough for the parallel products:
// a reduced E1 at the paper grid, and one annealing flow of the E3 system at
// grid 128, whose placement is then screened at eight power corners: one
// cold solve on a fresh model (a hierarchy whose coarse patterns and
// Galerkin rows were built on parallel workers) plus one scaling per
// corner. The CPU-DRAM original placement's power-on transient (every step
// peak) and liquid-cooled solve run on the same multigrid path at grid 64,
// whose 32768-row matrix takes the parallel products. Observability only
// watches, so the reduced E1 must also print the same with an observer
// attached.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	e1 := func(o *tap25d.Observer) (string, error) {
		cfg := Config{ThermalGrid: 64, Steps: 6, Runs: 2, CompactSteps: 2000, Seed: 1}
		rep, err := RunOrchestrated("E1", cfg, Orchestration{Obs: o})
		if err != nil {
			return "", err
		}
		rep.Elapsed = 0
		var buf bytes.Buffer
		rep.Format(&buf)
		return buf.String(), nil
	}
	outputs := map[string]string{}
	for _, tc := range []struct {
		name string
		run  func() (string, error)
	}{
		{"E1 grid 64", func() (string, error) { return e1(nil) }},
		{"E1 grid 64 observed", func() (string, error) { return e1(tap25d.NewObserver()) }},
		{"E3 system grid 128", func() (string, error) {
			sys := systems.CPUDRAM()
			res, err := tap25d.Place(sys, tap25d.Options{ThermalGrid: 128, Steps: 6, Runs: 1, CompactSteps: 2000, Seed: 1})
			if err != nil {
				return "", err
			}
			out := fmt.Sprintf("%v %v C %v mm\n  counters: %s\n", res.Placement.Centers, res.PeakC, res.WirelengthMM, res.Metrics)
			o := tap25d.NewObserver()
			scales := []float64{0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4}
			fields, err := tap25d.EvaluateScenarios(sys, res.Placement, scales, tap25d.Options{ThermalGrid: 128, Observer: o})
			if err != nil {
				return "", err
			}
			for c, f := range fields {
				out += fmt.Sprintf("  corner %v: %v C, %d iterations\n", scales[c], f.PeakC, f.Iterations)
			}
			return out + fmt.Sprintf("  corner counters: %v\n", o.Report().Extra), nil
		}},
		{"transient grid 64", func() (string, error) {
			tr, err := tap25d.Transient(systems.CPUDRAM(), systems.CPUDRAMOriginal(), 0.1, 30, tap25d.Options{ThermalGrid: 64})
			if err != nil {
				return "", err
			}
			t85, ok := tr.TimeToThresholdS(85)
			return fmt.Sprintf("%v\n  steady %v C, 85 C at %v s (%v)\n", tr.PeakC, tr.SteadyPeakC, t85, ok), nil
		}},
		{"liquid grid 64", func() (string, error) {
			res, err := tap25d.EvaluateLiquid(systems.CPUDRAM(), systems.CPUDRAMOriginal(), tap25d.LiquidCooling{}, tap25d.Options{ThermalGrid: 64})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v C, %d iterations\n", res.PeakC, res.Thermal.Iterations), nil
		}},
	} {
		var want string
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := tc.run()
			if err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", tc.name, procs, err)
			}
			if procs == 1 {
				want = got
			} else if got != want {
				t.Errorf("%s at GOMAXPROCS %d:\n%s\nwant (GOMAXPROCS 1):\n%s", tc.name, procs, got, want)
			}
		}
		t.Logf("%s:\n%s", tc.name, want)
		outputs[tc.name] = want
	}
	if on, off := outputs["E1 grid 64 observed"], outputs["E1 grid 64"]; on != off {
		t.Errorf("E1 grid 64 with an observer:\n%s\nwant (no observer):\n%s", on, off)
	}
}
