package thermal

import (
	"context"
	"fmt"
	"math"

	"tap25d/internal/material"
	"tap25d/internal/obs"
	"tap25d/internal/sparse"
)

// Transient holds a transient simulation's trace: the peak chiplet-layer
// temperature over time after a power step applied to a package initially at
// ambient. This extends the paper's steady-state methodology with the boost-
// residency question: how long can a placement sustain a power level before
// crossing the critical temperature?
type Transient struct {
	// TimesS are the sample times in seconds.
	TimesS []float64
	// PeakC is the peak chiplet-layer temperature at each sample.
	PeakC []float64
	// SteadyPeakC is the corresponding steady-state peak (the t -> inf
	// limit), from a steady solve of the same sources.
	SteadyPeakC float64
}

// SolveTransient integrates the thermal network C dT/dt + G T = P with
// backward Euler from ambient (T = 0 rise) over nsteps steps of dt seconds,
// recording the peak temperature after every step. The implicit scheme is
// unconditionally stable, so dt can span the millisecond package time
// constants without resolving the microsecond die ones. Every step is one
// solve on the model's path (its preconditioner, recovery ladder, counters
// and observer), warm-started from the previous step, under one
// thermal_solve span labeled transient. ctx is checked before every step
// and polled inside each step's CG solve, and a canceled transient returns
// ctx's error; an uncancelled one does not depend on ctx.
func (m *Model) SolveTransient(ctx context.Context, sources []Source, dt float64, nsteps int) (*Transient, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive time step %g", dt)
	}
	if nsteps <= 0 {
		return nil, fmt.Errorf("thermal: non-positive step count %d", nsteps)
	}
	sp := m.obs.StartSpanCtx(ctx, obs.PhaseThermalSolve, "transient")
	out, err := m.transientSteps(ctx, sp, sources, dt, nsteps)
	sp.End()
	if err != nil {
		m.failed = true
		return nil, err
	}
	// The steady-state reference starts cold, as on a new model.
	m.warm = false
	steady, err := m.SolveContext(ctx, sources)
	if err != nil {
		return nil, err
	}
	out.SteadyPeakC = steady.PeakC
	return out, nil
}

// transientSteps is the SolveTransient body before the steady reference,
// with sp as the parent of the hierarchy's mg_refresh span.
func (m *Model) transientSteps(ctx context.Context, sp *obs.Span, sources []Source, dt float64, nsteps int) (*Transient, error) {
	m.invalidateIncremental() // overwrites the fields the fixed matrix is keyed on
	if err := m.rasterize(sources); err != nil {
		return nil, err
	}
	m.assemble()
	a := m.builder.Build()

	// Per-node heat capacity (J/K).
	capv := m.capacities()
	coverDt := make([]float64, m.nNodes)
	for i := range coverDt {
		coverDt[i] = capv[i] / dt
	}
	if err := a.AddToDiag(coverDt); err != nil {
		return nil, fmt.Errorf("thermal: %w", err)
	}
	cg := sparse.NewCGSolver(a)

	g := m.grid
	t := make([]float64, m.nNodes) // rise over ambient, starts at 0
	rhs := make([]float64, m.nNodes)
	out := &Transient{}
	for step := 1; step <= nsteps; step++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("thermal: transient canceled before step %d: %w", step, err)
		}
		for i := range rhs {
			rhs[i] = m.power[i] + coverDt[i]*t[i]
		}
		if _, _, err := m.solve(ctx, sp, a, cg, t, rhs, !m.noRecover); err != nil {
			return nil, fmt.Errorf("thermal: transient step %d: %w", step, err)
		}
		peak := math.Inf(-1)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				if v := t[m.devNode(m.chipLayer, i, j)]; v > peak {
					peak = v
				}
			}
		}
		out.TimesS = append(out.TimesS, float64(step)*dt)
		out.PeakC = append(out.PeakC, m.stack.AmbientC+peak)
	}
	return out, nil
}

// TimeToThresholdS returns the first sample time at which the peak crossed
// thresholdC, or (0, false) if it never did within the simulated horizon.
func (tr *Transient) TimeToThresholdS(thresholdC float64) (float64, bool) {
	for i, p := range tr.PeakC {
		if p >= thresholdC {
			return tr.TimesS[i], true
		}
	}
	return 0, false
}

// capacities returns each node's lumped heat capacity in J/K.
func (m *Model) capacities() []float64 {
	g := m.grid
	caps := make([]float64, m.nNodes)
	cellA := m.cellW * m.cellH
	for l := 0; l < m.nDevLayers; l++ {
		vol := cellA * m.stack.Layers[l].Thickness
		base := m.stack.Layers[l].Base.VolumetricHeatCapacity
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				vc := base
				if l == m.chipLayer {
					// Mix silicon and underfill by coverage.
					c := m.cov[i*g+j]
					vc = base + (material.Silicon.VolumetricHeatCapacity-base)*c
				}
				caps[m.devNode(l, i, j)] = vc * vol
			}
		}
	}
	cu := material.Copper.VolumetricHeatCapacity
	sprVol := m.sprCellW * m.sprCellH * m.stack.SpreaderThickness
	sinkVol := m.sinkCellW * m.sinkCellH * m.stack.SinkThickness
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			caps[m.sprNode(i, j)] = cu * sprVol
			caps[m.sinkNode(i, j)] = cu * sinkVol
		}
	}
	return caps
}
