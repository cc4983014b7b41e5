package thermal

import (
	"context"
	"errors"
	"fmt"

	"tap25d/internal/obs"
	"tap25d/internal/sparse"
)

// relaxedTolFactor is how much the last-resort rung of the recovery ladder
// loosens the CG tolerance. 100× on cgTol (1e-6) still ranks placements
// that differ by tenths of a degree; the result is flagged as degraded so
// callers can decide whether to trust it.
const relaxedTolFactor = 100

// RecoveryInfo records the escalations the solver recovery ladder took to
// rescue one non-converging solve. It is attached to the Result only when the
// ladder actually ran, so a nil Recovery is the happy-path signature.
type RecoveryInfo struct {
	// ColdRestarts counts retries from the uniform cold-start guess after
	// the warm-started attempt failed to converge.
	ColdRestarts int `json:"cold_restarts"`
	// PrecondFallback reports that the solve escalated to the
	// multigrid-preconditioned rung. Only a Jacobi model takes that rung: a
	// multigrid model's cold restart already ran under its hierarchy, so it
	// goes straight to the relaxed tolerance.
	PrecondFallback bool `json:"precond_fallback"`
	// RelaxedTol is the loosened tolerance of the last-resort rung, zero when
	// that rung never ran.
	RelaxedTol float64 `json:"relaxed_tol,omitempty"`
	// Degraded marks a result accepted under the relaxed tolerance: usable
	// for ranking, but below the cgTol accuracy.
	Degraded bool `json:"degraded"`
}

// coldGuess resets x to the uniform cold-start guess.
func coldGuess(x []float64) {
	for i := range x {
		x[i] = 1
	}
}

// runCG performs one CG attempt on cg's matrix, solving for x (the initial
// guess on entry) against the right-hand side b, with the model's
// observability trace attached. It is the one place the model runs CG, so
// it also counts: a converged attempt is one thermal solve and its
// iterations, and every attempt's V-cycles are counted, failed ones too. A
// nil opt.Precond makes the solver precondition with the matrix diagonal
// (Jacobi); otherwise it is the model's multigrid hierarchy.
func (m *Model) runCG(ctx context.Context, cg *sparse.CGSolver, x, b []float64, opt sparse.CGOptions) (int, error) {
	var trace *obs.CGTrace
	if m.obs.Enabled() {
		trace = m.obs.StartCG()
		opt.OnIteration = trace.Observe
	}
	var cycles0 int64
	if opt.Precond != nil {
		cycles0 = m.mg.Cycles()
	}
	iters, err := cg.SolveContext(ctx, x, b, opt)
	m.obs.EndCG(trace, iters, err == nil)
	if opt.Precond != nil {
		m.addMGCycles(m.mg.Cycles() - cycles0)
	}
	if err == nil && m.ctr != nil {
		m.ctr.ThermalSolves++
		m.ctr.CGIterations += int64(iters)
	}
	return iters, err
}

// recoverable reports whether err is the kind of solve failure the recovery
// ladder can help with: an exhausted iteration budget on a live context.
// Structural failures (non-SPD matrix, dimension mismatch) and cancellation
// never retry.
func recoverable(ctx context.Context, err error) bool {
	return ctx.Err() == nil && errors.Is(err, sparse.ErrNoConvergence)
}

// recoverSolve is the solver recovery ladder, entered after a warm-started CG
// attempt failed to converge. It escalates through bounded rungs:
//
//  1. Cold restart: discard the (possibly misleading) warm state and retry
//     the same solve — same preconditioner — from the uniform guess.
//  2. Preconditioner fallback, Jacobi models only: retry under a multigrid
//     hierarchy, again from a cold start; the model builds its hierarchy
//     here. A multigrid model skips this rung: rung 1 already ran from the
//     same cold guess under the same current hierarchy and options, so a
//     second attempt would repeat it bit for bit.
//  3. Relaxed tolerance: one last attempt under the multigrid hierarchy at
//     relaxedTolFactor× cgTol; success is flagged Degraded on the result.
//
// Every attempt under the hierarchy runs under the grid-independent
// mgMaxIter budget, so a stalled ladder costs a few hundred V-cycles at
// most. Each escalation increments its metrics counter and obs extension
// counter and runs under a labeled span. The first rung to converge wins;
// when all rungs fail the original failure class (ErrNoConvergence)
// propagates.
func (m *Model) recoverSolve(ctx context.Context, a *sparse.CSR, cg *sparse.CGSolver, x, b []float64, opt sparse.CGOptions) (int, *RecoveryInfo, error) {
	rec := &RecoveryInfo{}

	// Rung 1: cold restart.
	sp := m.obs.StartSpanCtx(ctx, obs.PhaseThermalSolve, "recover:cold_restart")
	coldGuess(x)
	rec.ColdRestarts++
	if m.ctr != nil {
		m.ctr.CGRetries++
	}
	m.obs.Add("cg_retries", 1)
	iters, err := m.runCG(ctx, cg, x, b, opt)
	sp.End()
	if err == nil {
		return iters, rec, nil
	}
	if !recoverable(ctx, err) {
		return iters, rec, err
	}

	// Rung 2: multigrid fallback, cold start (Jacobi models only).
	if m.precond == precondJacobi {
		sp = m.obs.StartSpanCtx(ctx, obs.PhaseThermalSolve, "recover:mg")
		coldGuess(x)
		rec.PrecondFallback = true
		if m.ctr != nil {
			m.ctr.CGFallbackPrecond++
		}
		m.obs.Add("cg_fallback_precond", 1)
		mg, err := m.ensureMG(sp, a)
		if err != nil {
			sp.End()
			return 0, rec, err
		}
		opt = withMG(opt, mg)
		iters, err = m.runCG(ctx, cg, x, b, opt)
		sp.End()
		if err == nil {
			return iters, rec, nil
		}
		if !recoverable(ctx, err) {
			return iters, rec, err
		}
	}

	// Rung 3: relaxed tolerance, last resort.
	sp = m.obs.StartSpanCtx(ctx, obs.PhaseThermalSolve, "recover:relaxed_tol")
	coldGuess(x)
	relaxed := opt
	relaxed.Tol = opt.Tol * relaxedTolFactor
	rec.RelaxedTol = relaxed.Tol
	iters, err = m.runCG(ctx, cg, x, b, relaxed)
	sp.End()
	if err == nil {
		rec.Degraded = true
		return iters, rec, nil
	}
	return iters, rec, fmt.Errorf("recovery ladder exhausted: %w", err)
}
