package thermal

import (
	"context"
	"errors"
	"testing"

	"tap25d/internal/geom"
)

func offsetSource(dx float64) Source {
	return Source{Rect: geom.Rect{Center: geom.Point{X: 22.5 + dx, Y: 22.5}, W: 10, H: 10}, Power: 80}
}

// TestWarmStateRoundTrip is the checkpoint/resume contract at the thermal
// layer: restoring a captured warm-start field into a fresh model and solving
// the next source list must reproduce the continuing model's solution bit for
// bit (the fresh model full-assembles where the continuing one delta-updates;
// the two assembly paths are bitwise-identical by construction).
func TestWarmStateRoundTrip(t *testing.T) {
	s1 := []Source{offsetSource(0)}
	s2 := []Source{offsetSource(3)}

	cont := newTestModel(t, 16)
	if _, err := cont.Solve(s1); err != nil {
		t.Fatal(err)
	}
	ws := cont.WarmState()
	if ws == nil {
		t.Fatal("no warm state after a solve")
	}
	contRes, err := cont.Solve(s2)
	if err != nil {
		t.Fatal(err)
	}

	fresh := newTestModel(t, 16)
	if fresh.WarmState() != nil {
		t.Fatal("fresh model claims a warm state")
	}
	if err := fresh.RestoreWarmState(ws); err != nil {
		t.Fatal(err)
	}
	freshRes, err := fresh.Solve(s2)
	if err != nil {
		t.Fatal(err)
	}

	if freshRes.PeakC != contRes.PeakC {
		t.Fatalf("restored-warm peak %v != continuing peak %v", freshRes.PeakC, contRes.PeakC)
	}
	for i := range contRes.ChipTempC {
		if freshRes.ChipTempC[i] != contRes.ChipTempC[i] {
			t.Fatalf("temperature field differs at cell %d: %v vs %v", i, freshRes.ChipTempC[i], contRes.ChipTempC[i])
		}
	}
}

// TestWarmStateSurvivesAbortedSolve: CG iterates in place, so a canceled
// solve leaves the live warm buffer partial — but WarmState must keep
// reporting the last converged field, or a checkpoint written after a
// mid-solve SIGINT would resume from a cold (or garbage) start and break
// bit-compatibility with the uninterrupted run. CG polls the context before
// every iteration, so the multigrid path, whose solves end within a few
// iterations, aborts as the Jacobi path does.
func TestWarmStateSurvivesAbortedSolve(t *testing.T) {
	for _, precond := range []string{precondJacobi, precondMG} {
		t.Run(precond, func(t *testing.T) {
			m := newModelPrecond(t, 16, precond)
			if _, err := m.Solve([]Source{offsetSource(0)}); err != nil {
				t.Fatal(err)
			}
			ws1 := m.WarmState()

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.SolveContext(ctx, []Source{offsetSource(3)}); !errors.Is(err, context.Canceled) {
				t.Fatalf("SolveContext error = %v, want context.Canceled", err)
			}
			ws2 := m.WarmState()
			if ws2 == nil {
				t.Fatal("aborted solve discarded the last converged warm state")
			}
			for i := range ws1 {
				if ws1[i] != ws2[i] {
					t.Fatalf("warm state mutated by aborted solve at node %d: %v vs %v", i, ws1[i], ws2[i])
				}
			}
		})
	}
}

func TestRestoreWarmStateValidation(t *testing.T) {
	m := newTestModel(t, 16)
	if err := m.RestoreWarmState([]float64{1, 2, 3}); err == nil {
		t.Error("wrong-length warm state accepted")
	}
	if err := m.RestoreWarmState(nil); err != nil {
		t.Errorf("empty warm state (cold reset) rejected: %v", err)
	}
	if m.WarmState() != nil {
		t.Error("cold reset left a warm state behind")
	}
}

// TestSolveContextCanceled: a canceled context aborts the thermal solve with
// an error that wraps context.Canceled, under either preconditioner.
func TestSolveContextCanceled(t *testing.T) {
	for _, precond := range []string{precondJacobi, precondMG} {
		t.Run(precond, func(t *testing.T) {
			m := newModelPrecond(t, 32, precond)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := m.SolveContext(ctx, []Source{centeredSource(50)}); !errors.Is(err, context.Canceled) {
				t.Fatalf("SolveContext error = %v, want context.Canceled", err)
			}
		})
	}
}

// TestSolveContextUncanceledMatchesSolve: context plumbing must not perturb
// the solution.
func TestSolveContextUncanceledMatchesSolve(t *testing.T) {
	a := newTestModel(t, 16)
	b := newTestModel(t, 16)
	src := []Source{centeredSource(50)}
	ra, err := a.Solve(src)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.SolveContext(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.ChipTempC {
		if ra.ChipTempC[i] != rb.ChipTempC[i] {
			t.Fatalf("cell %d differs: %v vs %v", i, ra.ChipTempC[i], rb.ChipTempC[i])
		}
	}
}
