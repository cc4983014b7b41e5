package thermal

import (
	"context"
	"math"
	"testing"

	"tap25d/internal/metrics"
)

// TestSolveScaledCornerContract: every corner is exactly its scale times the
// temperature rise of the nominal solve a fresh model runs (what
// tap25d.Evaluate runs), so the 1.0 corner is that solve bit for bit and
// scale 0 is the ambient field; and every corner stays within 1e-5 C of a
// cold solve at its own power, on the Jacobi grid and the multigrid one.
func TestSolveScaledCornerContract(t *testing.T) {
	scales := []float64{0, 0.7, 1, 1.4}
	base := precondCases()[1].sources // cpudram
	for _, tc := range []struct {
		grid    int
		precond string
	}{{16, precondJacobi}, {64, precondMG}} {
		m := batchModel(t, tc.grid, "", nil)
		if m.precond != tc.precond {
			t.Fatalf("grid %d selected %s, want %s", tc.grid, m.precond, tc.precond)
		}
		got, err := m.SolveScaled(context.Background(), base, scales)
		if err != nil {
			t.Fatal(err)
		}
		ref := batchModel(t, tc.grid, "", nil)
		nominal, err := ref.Solve(base)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([][]Source, len(scales))
		for c, s := range scales {
			specs[c] = append([]Source(nil), base...)
			for k := range specs[c] {
				specs[c][k].Power *= s
			}
		}
		cold, err := batchModel(t, tc.grid, "", nil).SolveBatch(context.Background(), specs)
		if err != nil {
			t.Fatal(err)
		}

		g, amb := tc.grid, m.AmbientC()
		worst := 0.0
		for c, s := range scales {
			if got[c].Iterations != nominal.Iterations {
				t.Errorf("grid %d scale %v: %d iterations, nominal solve %d", g, s, got[c].Iterations, nominal.Iterations)
			}
			for i := 0; i < g; i++ {
				for j := 0; j < g; j++ {
					v := got[c].ChipTempC[i*g+j]
					want := float64(s*ref.temps[ref.devNode(ref.chipLayer, i, j)]) + amb
					if math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("grid %d scale %v cell (%d,%d): %v, want %v times the nominal rise (%v)", g, s, i, j, v, s, want)
					}
					worst = max(worst, math.Abs(v-cold[c].ChipTempC[i*g+j]))
				}
			}
		}
		if math.Float64bits(got[2].PeakC) != math.Float64bits(nominal.PeakC) {
			t.Errorf("grid %d: 1.0 corner peak %v, nominal solve %v", g, got[2].PeakC, nominal.PeakC)
		}
		if got[0].PeakC != amb || got[0].AvgC != amb {
			t.Errorf("grid %d: scale 0 peak %v avg %v, want the ambient %v", g, got[0].PeakC, got[0].AvgC, amb)
		}
		if worst > 1e-5 {
			t.Errorf("grid %d: superposed corners differ from cold solves by up to %.3g C", g, worst)
		}
		t.Logf("grid %d (%s): superposed vs cold-solved corners differ by at most %.3g C", g, tc.precond, worst)
	}
}

// TestSolveScaledNoSolve: an empty scale list and an invalid scale both
// return before any assembly or solve.
func TestSolveScaledNoSolve(t *testing.T) {
	base := precondCases()[1].sources
	for _, scales := range [][]float64{nil, {1, -0.5}, {math.NaN()}, {math.Inf(1)}} {
		var ctr metrics.Counters
		m := batchModel(t, 16, "", &ctr)
		res, err := m.SolveScaled(context.Background(), base, scales)
		if (err != nil) != (len(scales) > 0) || res != nil {
			t.Errorf("scales %v: results %v, error %v", scales, res, err)
		}
		if ctr.ThermalSolves != 0 || m.fixed != nil {
			t.Errorf("scales %v: %d solves, assembled %v", scales, ctr.ThermalSolves, m.fixed != nil)
		}
	}
}
