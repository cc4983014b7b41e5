package thermal

import (
	"context"
	"fmt"

	"tap25d/internal/obs"
)

// SolveBatch solves the steady-state field of B power scenarios of one
// placement: every spec must have the same source footprints (count,
// rectangles and order), only the powers may differ. The conductance matrix
// depends on footprints alone, so the batch shares one assembly (full or
// incremental delta, exactly as a plain Solve would) and one preconditioner
// setup — for the multigrid preconditioner, one hierarchy coarsening — and
// then solves the columns one after another on the plain CG loop.
//
// Semantics differ from a Solve sequence in three documented ways:
//
//   - Every column starts from the uniform cold-start guess, and the model's
//     warm-start state is neither consulted nor modified: a Solve after a
//     SolveBatch behaves exactly as if the batch had not happened.
//   - The recovery ladder does not run; a non-converging column fails the
//     batch with sparse.ErrNoConvergence. Scenario sweeps are offline
//     analyses where a loud failure beats a silently degraded corner.
//   - Each column's Result carries its own iteration count and temperature
//     map; Recovery is always nil.
//
// A done ctx fails the batch at the CG loop's poll before the next
// iteration, the first of a column included. Counter accounting matches B
// independent solves: every converged column adds one to ThermalSolves and
// its iterations to CGIterations.
func (m *Model) SolveBatch(ctx context.Context, specs [][]Source) ([]*Result, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	base := specs[0]
	for c, list := range specs[1:] {
		if len(list) != len(base) {
			return nil, fmt.Errorf("thermal: batch spec %d has %d sources, spec 0 has %d (footprints must match)", c+1, len(list), len(base))
		}
		for k := range list {
			if list[k].Rect != base[k].Rect {
				return nil, fmt.Errorf("thermal: batch spec %d source %d footprint %v differs from spec 0's %v (only powers may vary)", c+1, k, list[k].Rect, base[k].Rect)
			}
		}
	}

	sp := m.obs.StartSpanCtx(ctx, obs.PhaseThermalSolve, "batch")
	defer sp.End()
	a, cg, err := m.prepareAssembled(sp, base)
	if err != nil {
		return nil, err
	}

	results := make([]*Result, len(specs))
	b := make([]float64, m.nNodes)
	for c, list := range specs {
		if err := m.powerVector(b, list); err != nil {
			return nil, err
		}
		x := make([]float64, m.nNodes)
		coldGuess(x)
		iters, _, err := m.solve(ctx, sp, a, cg, x, b, false)
		if err != nil {
			return nil, fmt.Errorf("thermal: batch column %d: %w", c, err)
		}
		if results[c], err = m.buildResult(x, 1, iters); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// powerVector fills dst with the chiplet-layer power injection of sources,
// replicating rasterize's accumulation (same loop order, same expressions) so
// a batch column's right-hand side is bit-identical to the one a plain Solve
// of that spec would assemble.
func (m *Model) powerVector(dst []float64, sources []Source) error {
	for i := range dst {
		dst[i] = 0
	}
	for _, s := range sources {
		if s.Power < 0 {
			return errNegativePower(s.Power)
		}
		if s.Rect.W <= 0 || s.Rect.H <= 0 {
			return errBadFootprint(s.Rect)
		}
		perArea := s.Power / s.Rect.Area()
		i0, i1, j0, j1 := m.sourceWindow(s)
		for i := i0; i < i1; i++ {
			for j := j0; j < j1; j++ {
				ov := m.cellRectMM(i, j).OverlapArea(s.Rect)
				if ov <= 0 {
					continue
				}
				dst[m.devNode(m.chipLayer, i, j)] += perArea * ov
			}
		}
	}
	return nil
}
