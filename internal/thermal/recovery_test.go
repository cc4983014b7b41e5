package thermal

import (
	"context"
	"errors"
	"math"
	"testing"

	"tap25d/internal/faultinject"
	"tap25d/internal/metrics"
	"tap25d/internal/sparse"
)

func recoveryModel(t *testing.T, inj *faultinject.Injector, ctr *metrics.Counters, disable bool) *Model {
	t.Helper()
	return recoveryModelGrid(t, 16, inj, ctr, disable)
}

func recoveryModelGrid(t *testing.T, grid int, inj *faultinject.Injector, ctr *metrics.Counters, disable bool) *Model {
	t.Helper()
	m, err := NewModel(45, 45, Options{
		Grid: grid, Inject: inj, Counters: ctr, DisableRecovery: disable,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRecoveryColdRestart: a single injected non-convergence is rescued by
// rung 1 (cold restart), and — because no warm state existed yet — the
// recovered result is bit-identical to the uninjected solve.
func TestRecoveryColdRestart(t *testing.T) {
	ref := recoveryModel(t, nil, nil, false)
	want, err := ref.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultinject.New(1)
	inj.Arm(faultinject.PointCGSolve, faultinject.Spec{At: 1})
	var ctr metrics.Counters
	m := recoveryModel(t, inj, &ctr, false)
	got, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatalf("recovery ladder did not rescue the solve: %v", err)
	}
	if got.Recovery == nil || got.Recovery.ColdRestarts != 1 {
		t.Fatalf("Recovery = %+v, want one cold restart", got.Recovery)
	}
	if got.Recovery.PrecondFallback || got.Recovery.Degraded {
		t.Errorf("over-escalated: %+v", got.Recovery)
	}
	if ctr.CGRetries != 1 || ctr.CGFallbackPrecond != 0 {
		t.Errorf("counters = %+v, want CGRetries=1 CGFallbackPrecond=0", ctr)
	}
	for i := range want.ChipTempC {
		if want.ChipTempC[i] != got.ChipTempC[i] {
			t.Fatalf("cold-restart result diverges at cell %d: %v != %v",
				i, got.ChipTempC[i], want.ChipTempC[i])
		}
	}
}

// TestRecoveryMGFallback: two consecutive failures escalate a Jacobi model
// to the multigrid rung, which builds its hierarchy and solves to the same
// tolerance. A multigrid model skips that rung, since its cold restart
// already ran under the hierarchy, and comes back from the relaxed-tolerance
// rung, degraded. Either way the solve costs one setup.
func TestRecoveryMGFallback(t *testing.T) {
	for _, tc := range []struct {
		name         string
		grid         int
		wantFallback bool
	}{
		{"jacobi-g16", 16, true},
		{"mg-g96", 96, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := recoveryModelGrid(t, tc.grid, nil, nil, false)
			want, err := ref.Solve([]Source{centeredSource(100)})
			if err != nil {
				t.Fatal(err)
			}

			inj := faultinject.New(1)
			inj.Arm(faultinject.PointCGSolve, faultinject.Spec{Every: 1, Count: 2})
			var ctr metrics.Counters
			m := recoveryModelGrid(t, tc.grid, inj, &ctr, false)
			got, err := m.Solve([]Source{centeredSource(100)})
			if err != nil {
				t.Fatalf("ladder did not rescue the solve: %v", err)
			}
			rec := got.Recovery
			if rec == nil || rec.PrecondFallback != tc.wantFallback || rec.Degraded == tc.wantFallback {
				t.Fatalf("Recovery = %+v, want PrecondFallback=%v Degraded=%v",
					rec, tc.wantFallback, !tc.wantFallback)
			}
			wantFallbacks := int64(0)
			if tc.wantFallback {
				wantFallbacks = 1
			}
			if ctr.CGRetries != 1 || ctr.CGFallbackPrecond != wantFallbacks {
				t.Errorf("counters = %+v, want CGRetries=1 CGFallbackPrecond=%d", ctr, wantFallbacks)
			}
			if ctr.MGSetups != 1 || ctr.MGCycles == 0 {
				t.Errorf("mg_setups=%d mg_cycles=%d, want 1 setup and some cycles",
					ctr.MGSetups, ctr.MGCycles)
			}
			for i := range want.ChipTempC {
				if math.Abs(want.ChipTempC[i]-got.ChipTempC[i]) > 1e-4 {
					t.Fatalf("mg result diverges at cell %d: %v != %v",
						i, got.ChipTempC[i], want.ChipTempC[i])
				}
			}
		})
	}
}

// TestRecoveryRelaxedTolLastResort: three consecutive failures reach the
// relaxed-tolerance rung and the result is flagged degraded.
func TestRecoveryRelaxedTolLastResort(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.PointCGSolve, faultinject.Spec{Every: 1, Count: 3})
	var ctr metrics.Counters
	m := recoveryModel(t, inj, &ctr, false)
	got, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatalf("relaxed-tolerance rung did not rescue the solve: %v", err)
	}
	rec := got.Recovery
	if rec == nil || !rec.Degraded {
		t.Fatalf("Recovery = %+v, want Degraded", rec)
	}
	if math.Abs(rec.RelaxedTol-1e-4) > 1e-9 {
		t.Errorf("RelaxedTol = %v, want ~1e-4 (%v× the 1e-6 default)", rec.RelaxedTol, relaxedTolFactor)
	}
	if rec.ColdRestarts != 1 || !rec.PrecondFallback {
		t.Errorf("ladder skipped rungs: %+v", rec)
	}
	// Even degraded, the field must be physically sane.
	if got.PeakC <= m.AmbientC() || got.PeakC > 500 {
		t.Errorf("degraded peak %v implausible", got.PeakC)
	}
}

// TestRecoveryLadderExhausted: a persistent fault defeats every rung and the
// final error keeps both the non-convergence class and the injection marker.
// A Jacobi model climbs all three rungs; a multigrid model skips the
// multigrid rung, so it attempts one solve fewer.
func TestRecoveryLadderExhausted(t *testing.T) {
	for _, tc := range []struct {
		name      string
		grid      int
		wantSolve int64
	}{
		{"jacobi-g16", 16, 4}, // initial + 3 rungs
		{"mg-g64", 64, 3},     // initial + cold restart + relaxed tolerance
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultinject.New(1)
			inj.Arm(faultinject.PointCGSolve, faultinject.Spec{Every: 1})
			m := recoveryModelGrid(t, tc.grid, inj, nil, false)
			_, err := m.Solve([]Source{centeredSource(100)})
			if err == nil {
				t.Fatal("persistent fault produced a result")
			}
			if !errors.Is(err, sparse.ErrNoConvergence) {
				t.Errorf("error %v lost ErrNoConvergence", err)
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("error %v lost ErrInjected", err)
			}
			if got := inj.Count(faultinject.PointCGSolve); got != tc.wantSolve {
				t.Errorf("%d CG solves attempted, want %d", got, tc.wantSolve)
			}
			if got := inj.Fired(faultinject.PointCGSolve); got != tc.wantSolve {
				t.Errorf("injector fired %d times, want %d", got, tc.wantSolve)
			}
		})
	}
}

// TestRecoveryDisabled: with DisableRecovery the first non-convergence fails
// the solve, exactly as before the ladder existed.
func TestRecoveryDisabled(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.PointCGSolve, faultinject.Spec{At: 1})
	var ctr metrics.Counters
	m := recoveryModel(t, inj, &ctr, true)
	_, err := m.Solve([]Source{centeredSource(100)})
	if !errors.Is(err, sparse.ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
	if ctr.CGRetries != 0 || ctr.CGFallbackPrecond != 0 {
		t.Errorf("disabled ladder incremented counters: %+v", ctr)
	}
	// The model must stay usable: the next (uninjected) solve succeeds.
	res, err := m.Solve([]Source{centeredSource(100)})
	if err != nil {
		t.Fatalf("solve after failed solve: %v", err)
	}
	if res.Recovery != nil {
		t.Errorf("clean solve carries Recovery %+v", res.Recovery)
	}
}

// TestRecoveryAfterWarmState: a failure on a warm-started solve discards the
// warm field; the cold restart still converges and later solves keep working.
func TestRecoveryAfterWarmState(t *testing.T) {
	inj := faultinject.New(1)
	var ctr metrics.Counters
	m := recoveryModel(t, inj, &ctr, false)
	if _, err := m.Solve([]Source{centeredSource(100)}); err != nil {
		t.Fatal(err)
	}
	// Second solve is warm-started; inject a failure into it.
	inj.Arm(faultinject.PointCGSolve, faultinject.Spec{At: 1})
	res, err := m.Solve([]Source{centeredSource(120)})
	if err != nil {
		t.Fatalf("warm-start recovery failed: %v", err)
	}
	if res.Recovery == nil || res.Recovery.ColdRestarts != 1 {
		t.Fatalf("Recovery = %+v, want one cold restart", res.Recovery)
	}
	// Cross-check against a fresh model: same sources, cold solve.
	ref := recoveryModel(t, nil, nil, false)
	if _, err := ref.Solve([]Source{centeredSource(100)}); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve([]Source{centeredSource(120)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PeakC-want.PeakC) > 1e-3 {
		t.Errorf("recovered peak %v, reference %v", res.PeakC, want.PeakC)
	}
}

// TestAssembleInjection: the thermal-assembly injection point surfaces as a
// clean error (the kind the placer's step-skip budget absorbs), and the model
// recovers on the next solve.
func TestAssembleInjection(t *testing.T) {
	inj := faultinject.New(1)
	inj.Arm(faultinject.PointThermalAssemble, faultinject.Spec{At: 1})
	m := recoveryModel(t, inj, nil, false)
	_, err := m.Solve([]Source{centeredSource(100)})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected assembly fault, got %v", err)
	}
	if _, err := m.Solve([]Source{centeredSource(100)}); err != nil {
		t.Fatalf("solve after injected assembly fault: %v", err)
	}
}

// TestMultigridBudgetStopsStalledSolve: a multigrid CG attempt that cannot
// converge stops with ErrNoConvergence after exactly mgMaxIter V-cycle
// iterations, whatever the grid, instead of the Jacobi budget of 40·grid.
// CG's recursive residual keeps falling about a decade per iteration here,
// well past rounding, so only a relative tolerance of 1e-300 is out of the
// budget's reach.
func TestMultigridBudgetStopsStalledSolve(t *testing.T) {
	var ctr metrics.Counters
	m := recoveryModelGrid(t, 64, nil, &ctr, true)
	a, cg, err := m.prepareAssembled(nil, []Source{centeredSource(100)})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := m.ensureMG(a)
	if err != nil {
		t.Fatal(err)
	}
	m.coldGuess()
	iters, err := m.runCG(context.Background(), a, cg, withMG(sparse.CGOptions{Tol: 1e-300}, mg))
	if !errors.Is(err, sparse.ErrNoConvergence) {
		t.Fatalf("err = %v after %d iterations, want ErrNoConvergence", err, iters)
	}
	if iters != mgMaxIter || mgMaxIter >= maxIterPerGrid*m.grid {
		t.Errorf("stalled attempt ran %d iterations, want the multigrid budget %d (Jacobi's is %d)",
			iters, mgMaxIter, maxIterPerGrid*m.grid)
	}
	// One V-cycle before the loop and one per iteration.
	if ctr.MGCycles != mgMaxIter+1 {
		t.Errorf("mg_cycles = %d, want %d", ctr.MGCycles, mgMaxIter+1)
	}
}
