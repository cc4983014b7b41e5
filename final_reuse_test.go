package tap25d

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
)

// sameFinal fails unless Place's final evaluation got equals a fresh
// Evaluate of the same placement, bit for bit.
func sameFinal(t *testing.T, got, fresh *Result) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(got.PeakC, fresh.PeakC) || !same(got.Thermal.AvgC, fresh.Thermal.AvgC) {
		t.Errorf("Place gives peak %v / avg %v C, fresh Evaluate %v / %v C",
			got.PeakC, got.Thermal.AvgC, fresh.PeakC, fresh.Thermal.AvgC)
	}
	if got.Thermal.Iterations != fresh.Thermal.Iterations {
		t.Errorf("Place's final solve took %d CG iterations, fresh Evaluate %d",
			got.Thermal.Iterations, fresh.Thermal.Iterations)
	}
	if !same(got.WirelengthMM, fresh.WirelengthMM) {
		t.Errorf("Place gives %v mm, fresh Evaluate %v mm", got.WirelengthMM, fresh.WirelengthMM)
	}
	if len(got.Thermal.ChipTempC) != len(fresh.Thermal.ChipTempC) {
		t.Fatalf("Place's field has %d cells, fresh Evaluate's %d", len(got.Thermal.ChipTempC), len(fresh.Thermal.ChipTempC))
	}
	for i, v := range got.Thermal.ChipTempC {
		if !same(v, fresh.Thermal.ChipTempC[i]) {
			t.Fatalf("cell %d: Place gives %v C, fresh Evaluate %v C", i, v, fresh.Thermal.ChipTempC[i])
		}
	}
}

// TestPlaceFinalMatchesFreshEvaluate checks that Place, which finalizes on
// the winning run's thermal model, reports exactly the field, iterations and
// wirelength of a fresh Evaluate of its placement: on the Jacobi path, on
// the multigrid path with parallel surrogate runs, on the two-block
// grid-128 cycle, after a cancellation and after a resume.
func TestPlaceFinalMatchesFreshEvaluate(t *testing.T) {
	check := func(t *testing.T, system string, opt Options, wantErr error) *Result {
		t.Helper()
		sys, err := BuiltinSystem(system)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Place(sys, opt)
		if !errors.Is(err, wantErr) {
			t.Fatalf("Place error = %v, want %v", err, wantErr)
		}
		fresh, err := Evaluate(sys, got.Placement, Options{ThermalGrid: opt.ThermalGrid})
		if err != nil {
			t.Fatal(err)
		}
		sameFinal(t, got, fresh)
		return got
	}

	t.Run("jacobi-grid16", func(t *testing.T) {
		check(t, "multigpu", Options{ThermalGrid: 16, Steps: 60, Runs: 1, CompactSteps: 2000, Seed: 2}, nil)
	})

	t.Run("mg-grid64-surrogate-runs2", func(t *testing.T) {
		res := check(t, "multigpu", Options{ThermalGrid: 64, Steps: 40, Runs: 2, CompactSteps: 2000, Seed: 1, Surrogate: true}, nil)
		// Finalized on a fresh model, this flow counted 56 evaluations, 56
		// solves, 197 CG iterations, 83 route calls, assemblies 3/33/20
		// (full/delta/skip) and 36 hierarchy set-ups. The winner's model,
		// reset cold, does the same work in place: a full assembly in its
		// frozen pattern and a numeric hierarchy set-up, so every count is
		// unchanged.
		m := res.Metrics
		got := [...]int64{m.Evaluations, m.ThermalSolves, m.CGIterations, m.RouteCalls,
			m.FullAssembles, m.DeltaAssembles, m.SkippedAssembles, m.MGSetups}
		if want := [...]int64{56, 56, 197, 83, 3, 33, 20, 36}; got != want {
			t.Errorf("evaluations, solves, cg_iterations, route_calls, full/delta/skip assembles, mg_setups = %v, want %v", got, want)
		}
	})

	t.Run("two-block-grid128", func(t *testing.T) {
		if testing.Short() {
			t.Skip("grid-128 flow")
		}
		check(t, "cpudram", Options{ThermalGrid: 128, Steps: 4, Runs: 1, CompactSteps: 2000, Seed: 2}, nil)
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var steps atomic.Int32
		opt := Options{ThermalGrid: 24, Steps: 400, Runs: 2, CompactSteps: 2000, Seed: 1,
			Context: ctx, ProgressEvery: 1}
		opt.Progress = func(e RunEvent) {
			if e.Kind == EventStep && steps.Add(1) == 12 {
				cancel()
			}
		}
		if res := check(t, "multigpu", opt, context.Canceled); !res.Interrupted {
			t.Error("canceled Place did not report Interrupted")
		}
	})

	t.Run("resumed", func(t *testing.T) {
		var last *RunCheckpoint
		opt := Options{ThermalGrid: 24, Steps: 80, Runs: 1, CompactSteps: 2000, Seed: 1, CheckpointEvery: 30}
		opt.Checkpoint = func(cp *RunCheckpoint) error {
			if cp.Step == 60 {
				last = cp
			}
			return nil
		}
		check(t, "multigpu", opt, nil)
		if last == nil {
			t.Fatal("no checkpoint at step 60")
		}
		opt.Checkpoint = nil
		opt.Restore = func(int) (*RunCheckpoint, error) { return last, nil }
		res := check(t, "multigpu", opt, nil)
		if res.Metrics.Resumes != 1 {
			t.Errorf("resumes = %d, want 1", res.Metrics.Resumes)
		}
	})
}
