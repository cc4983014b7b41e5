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
// grid 128.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	for _, tc := range []struct {
		name string
		run  func() (string, error)
	}{
		{"E1 grid 64", func() (string, error) {
			rep, err := Run("E1", Config{ThermalGrid: 64, Steps: 6, Runs: 2, CompactSteps: 2000, Seed: 1})
			if err != nil {
				return "", err
			}
			rep.Elapsed = 0
			var buf bytes.Buffer
			rep.Format(&buf)
			return buf.String(), nil
		}},
		{"E3 system grid 128", func() (string, error) {
			res, err := tap25d.Place(systems.CPUDRAM(), tap25d.Options{ThermalGrid: 128, Steps: 6, Runs: 1, CompactSteps: 2000, Seed: 1})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%v %v C %v mm\n  counters: %s\n", res.Placement.Centers, res.PeakC, res.WirelengthMM, res.Metrics), nil
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
	}
}
