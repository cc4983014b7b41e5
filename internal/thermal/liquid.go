package thermal

import (
	"context"
	"fmt"
	"math"

	"tap25d/internal/obs"
	"tap25d/internal/sparse"
)

// LiquidCooling models the "more advanced but expensive cooling technology"
// the paper's introduction contrasts with thermally-aware placement (it
// cites variable-flow liquid cooling, Coskun et al. DATE'10): a microchannel
// cold plate replaces the air heatsink. Two effects distinguish it from the
// air model:
//
//   - a much lower convective resistance between the plate and the coolant,
//     applied per cell over the plate area; and
//   - caloric heating of the coolant: water entering at InletC warms as it
//     absorbs heat flowing left to right across the plate, so downstream
//     cells see warmer coolant (the classic liquid-cooling outlet gradient).
//
// The solve alternates the linear conduction solve with the coolant energy
// balance until the coolant field converges (2-4 iterations in practice).
type LiquidCooling struct {
	// InletC is the coolant inlet temperature (default 25).
	InletC float64
	// FlowLPM is the volumetric flow in liters/minute (default 1.0).
	FlowLPM float64
	// HTC is the cell-level heat transfer coefficient between the cold
	// plate and the coolant in W/(m²·K) (default 20000, microchannel-class).
	HTC float64
}

// withDefaults fills zero fields.
func (lc LiquidCooling) withDefaults() LiquidCooling {
	if lc.InletC == 0 {
		lc.InletC = 25
	}
	if lc.FlowLPM == 0 {
		lc.FlowLPM = 1.0
	}
	if lc.HTC == 0 {
		lc.HTC = 20000
	}
	return lc
}

// waterHeatCapacity is the volumetric heat capacity of water, J/(m³·K).
const waterHeatCapacity = 4.18e6

// SolveLiquid computes the steady-state field with a liquid cold plate in
// place of the air heatsink. The returned Result is in the same format as
// Solve (ambient remains the reporting reference). Every conduction solve is
// one solve on the model's path (its preconditioner, recovery ladder,
// counters and observer), under one thermal_solve span labeled liquid. Each
// polls ctx and a canceled one returns ctx's error; an uncancelled solve
// does not depend on ctx.
func (m *Model) SolveLiquid(ctx context.Context, sources []Source, lc LiquidCooling) (res *Result, err error) {
	lc = lc.withDefaults()
	if lc.FlowLPM <= 0 || lc.HTC <= 0 {
		return nil, fmt.Errorf("thermal: non-positive liquid cooling parameters")
	}
	sp := m.obs.StartSpanCtx(ctx, obs.PhaseThermalSolve, "liquid")
	defer func() { sp.End(); m.failed = err != nil }()
	m.invalidateIncremental() // overwrites the fields the fixed matrix is keyed on
	if err := m.rasterize(sources); err != nil {
		return nil, err
	}
	g := m.grid

	// Assemble the conduction network but replace the sink's uniform
	// convection with the cold-plate HTC per cell.
	m.assembleLiquid(lc)
	a := m.builder.Build()
	cg := sparse.NewCGSolver(a)

	// Coolant temperature per sink column (flow left to right): fixed-point
	// iteration between the conduction solve and the coolant energy balance.
	cellA := m.sinkCellW * m.sinkCellH
	gCell := lc.HTC * cellA                              // W/K per sink cell
	mdotCp := lc.FlowLPM / 1000 / 60 * waterHeatCapacity // W/K total stream
	coolRise := make([]float64, g)                       // column coolant rise over ambient
	inletRise := lc.InletC - m.stack.AmbientC            // may be negative (coolant below ambient)
	t := make([]float64, m.nNodes)
	rhs := make([]float64, m.nNodes)

	var iters int
	for iter := 0; iter < 6; iter++ {
		// RHS: power plus the coolant boundary at its current temperature:
		// g*(T - Tcool) means +g on the diagonal (already assembled) and
		// +g*Tcool on the RHS.
		copy(rhs, m.power)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				rhs[m.sinkNode(i, j)] += gCell * (inletRise + coolRise[j])
			}
		}
		iters, _, err = m.solve(ctx, sp, a, cg, t, rhs, !m.noRecover)
		if err != nil {
			return nil, fmt.Errorf("thermal: liquid solve: %w", err)
		}
		// Coolant energy balance: heat absorbed in columns 0..j-1 warms the
		// stream entering column j by (absorbed upstream)/(mdot*cp).
		newRise := make([]float64, g)
		absorbed := 0.0
		for j := 0; j < g; j++ {
			newRise[j] = absorbed / mdotCp // caloric rise over the inlet
			coolantOverAmbient := inletRise + newRise[j]
			var colHeat float64
			for i := 0; i < g; i++ {
				plate := t[m.sinkNode(i, j)]
				colHeat += gCell * (plate - coolantOverAmbient)
			}
			absorbed += math.Max(0, colHeat)
		}
		// Convergence check.
		var delta float64
		for j := 0; j < g; j++ {
			delta = math.Max(delta, math.Abs(newRise[j]-coolRise[j]))
		}
		copy(coolRise, newRise)
		if delta < 0.01 {
			break
		}
	}
	m.warm = false // the next air solve starts cold, as on a new model

	return m.buildResult(t, 1, iters)
}

// assembleLiquid mirrors assemble but ends the stack in a cold plate: the
// sink layer keeps its copper lateral conduction while its uniform
// convection diagonal is replaced by the per-cell cold-plate conductance
// (the coolant temperature itself enters through the RHS).
func (m *Model) assembleLiquid(lc LiquidCooling) {
	// Reuse the standard assembly, then exchange the sink boundary: the
	// standard version added 1/Rconv/g² per sink cell; add the difference to
	// reach HTC*cellA.
	m.assemble()
	g := m.grid
	cellA := m.sinkCellW * m.sinkCellH
	gCell := lc.HTC * cellA
	stdPerCell := 1 / m.stack.ConvectionResistance / float64(g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			m.builder.AddDiag(m.sinkNode(i, j), gCell-stdPerCell)
		}
	}
}
