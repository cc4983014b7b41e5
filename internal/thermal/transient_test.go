package thermal

import (
	"context"
	"math"
	"testing"

	"tap25d/internal/geom"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
)

func TestTransientValidation(t *testing.T) {
	m := newTestModel(t, 8)
	src := []Source{centeredSource(100)}
	if _, err := m.SolveTransient(context.Background(), src, 0, 10); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := m.SolveTransient(context.Background(), src, 0.1, 0); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := m.SolveTransient(context.Background(), []Source{{Power: -1, Rect: geom.Rect{Center: geom.Point{X: 5, Y: 5}, W: 1, H: 1}}}, 0.1, 2); err == nil {
		t.Error("negative power accepted")
	}
}

func TestTransientMonotonicRiseToSteady(t *testing.T) {
	m := newTestModel(t, 16)
	src := []Source{centeredSource(150)}
	tr, err := m.SolveTransient(context.Background(), src, 0.2, 40) // 8 s horizon
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.PeakC) != 40 {
		t.Fatalf("samples = %d", len(tr.PeakC))
	}
	for i := 1; i < len(tr.PeakC); i++ {
		if tr.PeakC[i] < tr.PeakC[i-1]-1e-6 {
			t.Fatalf("peak fell at step %d: %v -> %v", i, tr.PeakC[i-1], tr.PeakC[i])
		}
	}
	// Starts near ambient, approaches (but does not exceed) steady state.
	if tr.PeakC[0] >= tr.SteadyPeakC {
		t.Errorf("first sample %v already above steady %v", tr.PeakC[0], tr.SteadyPeakC)
	}
	last := tr.PeakC[len(tr.PeakC)-1]
	if last > tr.SteadyPeakC+0.5 {
		t.Errorf("transient overshot steady state: %v > %v", last, tr.SteadyPeakC)
	}
	// After ~8 s a small package should be within a few degrees of steady.
	if tr.SteadyPeakC-last > 0.15*(tr.SteadyPeakC-45) {
		t.Errorf("not converging to steady: %v vs %v", last, tr.SteadyPeakC)
	}
}

func TestTransientConvergesToSteadyLongHorizon(t *testing.T) {
	m := newTestModel(t, 12)
	src := []Source{centeredSource(100)}
	tr, err := m.SolveTransient(context.Background(), src, 1.0, 60)
	if err != nil {
		t.Fatal(err)
	}
	last := tr.PeakC[len(tr.PeakC)-1]
	if math.Abs(last-tr.SteadyPeakC) > 0.05*(tr.SteadyPeakC-45) {
		t.Errorf("60 s transient %v far from steady %v", last, tr.SteadyPeakC)
	}
}

func TestTimeToThreshold(t *testing.T) {
	m := newTestModel(t, 16)
	src := []Source{centeredSource(300)}
	tr, err := m.SolveTransient(context.Background(), src, 0.1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SteadyPeakC <= 85 {
		t.Skipf("calibration changed; steady %v no longer crosses 85", tr.SteadyPeakC)
	}
	tt, ok := tr.TimeToThresholdS(85)
	if !ok {
		t.Fatal("85 C never crossed despite hot steady state")
	}
	if tt <= 0 || tt > 5 {
		t.Errorf("time to 85 C = %v s, implausible", tt)
	}
	// An unreachable threshold reports false.
	if _, ok := tr.TimeToThresholdS(1000); ok {
		t.Error("1000 C should be unreachable")
	}
}

func TestTransientMorePowerCrossesSooner(t *testing.T) {
	// The thin die layers have millisecond time constants, so resolve the
	// crossing with 2 ms steps.
	m := newTestModel(t, 12)
	mk := func(p float64) float64 {
		tr, err := m.SolveTransient(context.Background(), []Source{centeredSource(p)}, 0.002, 400)
		if err != nil {
			t.Fatal(err)
		}
		tt, ok := tr.TimeToThresholdS(80)
		if !ok {
			return math.Inf(1)
		}
		return tt
	}
	t150 := mk(150)
	t400 := mk(400)
	if math.IsInf(t400, 1) {
		t.Fatal("400 W never crossed 80 C in 0.8 s")
	}
	if t400 >= t150 {
		t.Errorf("400 W crossed at %v s, not sooner than 150 W at %v s", t400, t150)
	}
}

func TestSteadySolveStillWorksAfterTransient(t *testing.T) {
	// SolveTransient mutates solver scratch state; a subsequent steady
	// solve must be unaffected.
	m := newTestModel(t, 12)
	src := []Source{centeredSource(120)}
	ref, err := m.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SolveTransient(context.Background(), src, 0.1, 5); err != nil {
		t.Fatal(err)
	}
	again, err := m.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ref.PeakC-again.PeakC) > 1e-3 {
		t.Errorf("steady solve changed after transient: %v vs %v", ref.PeakC, again.PeakC)
	}
}

// TestTransientAndLiquidCountOnTheSolvePath: transient steps and liquid
// fixed-point iterations run on the model's solve path, so they count like
// steady solves (one thermal solve and its iterations per converged CG
// solve, one V-cycle per iteration) and record one thermal_solve span
// labeled transient or liquid, parenting the hierarchy's build.
func TestTransientAndLiquidCountOnTheSolvePath(t *testing.T) {
	src := []Source{centeredSource(150)}
	for _, tc := range []struct {
		name  string
		solve func(m *Model) (int64, error)
	}{
		{"transient", func(m *Model) (int64, error) {
			_, err := m.SolveTransient(context.Background(), src, 0.1, 5)
			return 5 + 1, err // five steps and the steady reference
		}},
		{"liquid", func(m *Model) (int64, error) {
			_, err := m.SolveLiquid(context.Background(), src, LiquidCooling{})
			return 0, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ctr metrics.Counters
			o := obs.New()
			m, err := NewModel(45, 45, Options{Grid: 32, Counters: &ctr, Obs: o})
			if err != nil {
				t.Fatal(err)
			}
			solves, err := tc.solve(m)
			if err != nil {
				t.Fatal(err)
			}
			if solves > 0 && ctr.ThermalSolves != solves || ctr.ThermalSolves == 0 {
				t.Errorf("thermal_solves = %d, want %d", ctr.ThermalSolves, solves)
			}
			if ctr.CGIterations == 0 || ctr.MGCycles != ctr.CGIterations {
				t.Errorf("mg_cycles = %d, cg_iters = %d; want one V-cycle per iteration", ctr.MGCycles, ctr.CGIterations)
			}
			var labeled, builds int
			for _, sp := range o.RecentSpans() {
				switch {
				case sp.Phase == obs.PhaseThermalSolve.String() && sp.Label == tc.name:
					labeled++
				case sp.Phase == obs.PhaseMGRefresh.String() && sp.Parent == obs.PhaseThermalSolve.String():
					builds++
				}
			}
			if labeled != 1 || builds == 0 {
				t.Errorf("%d thermal_solve spans labeled %s and %d mg_refresh spans under a solve, want 1 and some", labeled, tc.name, builds)
			}
		})
	}
}
