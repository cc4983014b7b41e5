package thermal

import (
	"context"
	"fmt"

	"tap25d/internal/obs"
	"tap25d/internal/sparse"
)

// SolveBatch solves the steady-state field of B power scenarios of one
// placement in a single pass: every spec must have the same source footprints
// (count, rectangles and order), only the powers may differ. The conductance
// matrix depends on footprints alone, so the batch shares one assembly (full
// or incremental delta, exactly as a plain Solve would) and one
// preconditioner setup — for the multigrid preconditioner that means one
// hierarchy coarsening amortized over all B solves — and the right-hand
// sides are solved together by sparse.SolveCGBatch's blocked sweep.
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
// Counter accounting matches B independent solves: ThermalSolves += B and
// CGIterations accumulates every column's iterations.
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
	a, _, err := m.prepareAssembled(sp, base)
	if err != nil {
		return nil, err
	}

	nrhs := len(specs)
	xs := make([][]float64, nrhs)
	bs := make([][]float64, nrhs)
	for c, list := range specs {
		bs[c] = make([]float64, m.nNodes)
		if err := m.powerVector(bs[c], list); err != nil {
			return nil, err
		}
		xs[c] = make([]float64, m.nNodes)
		for i := range xs[c] {
			xs[c][i] = 1 // the uniform cold-start guess (see coldGuess)
		}
	}

	opt := sparse.CGOptions{Tol: cgTol, MaxIter: m.maxIter, Inject: m.inject}
	var cycles0 int64
	if m.precond == precondMG {
		mg, err := m.ensureMG(a)
		if err != nil {
			return nil, fmt.Errorf("thermal: %w", err)
		}
		opt = withMG(opt, mg)
		cycles0 = mg.Cycles()
	}
	iters, err := sparse.SolveCGBatch(ctx, a, xs, bs, opt)
	if opt.Precond != nil {
		m.addMGCycles(m.mg.Cycles() - cycles0)
	}
	if err != nil {
		return nil, fmt.Errorf("thermal: %w", err)
	}

	results := make([]*Result, nrhs)
	var total int64
	for c := range specs {
		if results[c], err = m.buildResult(xs[c], 1, iters[c]); err != nil {
			return nil, err
		}
		total += int64(iters[c])
	}
	if m.ctr != nil {
		m.ctr.ThermalSolves += int64(nrhs)
		m.ctr.CGIterations += total
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
