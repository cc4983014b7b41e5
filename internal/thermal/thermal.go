// Package thermal implements the steady-state thermal simulation used by
// TAP-2.5D to evaluate chiplet placements. It mirrors the HotSpot
// heterogeneous-3D extension the paper uses: the six modeling layers of
// Fig. 1 (organic substrate, C4 bumps, silicon interposer, microbumps,
// chiplet layer, TIM) stacked under a copper heat spreader and an air-forced
// heatsink, discretized on a grid (64×64 by default) and solved as a
// finite-difference thermal resistance network. The chiplet layer is
// heterogeneous: silicon where dies sit, epoxy underfill elsewhere — which is
// exactly what makes spreading chiplets apart lower the peak temperature.
//
// Temperatures are solved as rises over the ambient (45 °C by default); the
// linear system G·T = P is symmetric positive definite and is solved with
// conjugate gradients preconditioned by a geometric multigrid V-cycle,
// warm-started from the previous solve so that consecutive
// simulated-annealing steps converge quickly.
package thermal

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"

	"tap25d/internal/faultinject"
	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
	"tap25d/internal/sparse"
)

// Source is a heat source: a rectangular footprint on the chiplet layer
// dissipating Power watts uniformly.
type Source struct {
	Rect  geom.Rect // mm, interposer coordinates
	Power float64   // W
}

// Options configures a Model.
type Options struct {
	// Grid is the number of cells along each axis of every layer
	// (the paper's grid model resolution, default 64).
	Grid int
	// Stack describes the layers and boundary; zero value means
	// material.DefaultStack().
	Stack *material.Stack
	// Precond selects the CG preconditioner of steady-state solves. The
	// empty default and "mg" are the geometric multigrid V-cycle at every
	// grid; "jacobi" forces the matrix diagonal, the reference path of the
	// solver-scaling bench and of the tests that exercise Jacobi-specific
	// behaviour (the recovery ladder's multigrid rung), not a user-facing
	// option.
	//
	// The selection applies to Solve/SolveContext/SolveScaled/SolveBatch; the transient
	// and liquid-cooling solvers keep their Jacobi path.
	Precond string
	// DisableIncremental forces every Solve through the full
	// rasterize/assemble/build path. The incremental path produces
	// bit-identical temperatures (the equivalence property test enforces
	// this), so this switch exists for benchmarking and verification, not
	// correctness.
	DisableIncremental bool
	// Counters, when non-nil, receives the model's solve/assembly statistics.
	// The model does not synchronize access: share a Counters only among
	// models used from one goroutine.
	Counters *metrics.Counters
	// Obs, when non-nil, receives solve/assemble span timings and per-solve
	// CG convergence traces. Instrumentation is timing-only: it never touches
	// the arithmetic, so observed and unobserved solves are bit-identical.
	Obs *obs.Observer
	// DisableRecovery turns off the solver recovery ladder: a CG
	// non-convergence fails the solve immediately, as it did before the
	// ladder existed. The ladder never runs on a converging solve, so this
	// switch exists for bit-identity verification and diagnosis, not
	// correctness.
	DisableRecovery bool
	// Inject, when non-nil, is consulted at the faultinject.PointCGSolve and
	// faultinject.PointThermalAssemble injection points, letting tests force
	// solver non-convergence or assembly failure deterministically. A nil
	// Injector costs one pointer test per solve.
	Inject *faultinject.Injector
}

// Model evaluates placements on a fixed interposer. A Model is reusable but
// not safe for concurrent use (it keeps scratch buffers and a warm-start
// temperature field). A model from Acquire goes back to the process-wide
// idle pool with Release once its owner is done with it.
type Model struct {
	modelKey     // construction: dimensions, grid, stack, switches; immutable
	maxIter  int // Jacobi CG iteration budget, maxIterPerGrid·grid

	nDevLayers int // device layers (from stack)
	chipLayer  int // index of heterogeneous power layer
	nNodes     int

	cellW, cellH float64 // device cell size, meters
	// spreader/sink geometry (meters)
	sprEdgeW, sprEdgeH   float64
	sinkEdgeW, sinkEdgeH float64
	sprCellW, sprCellH   float64
	sinkCellW, sinkCellH float64
	sprX0, sprY0         float64 // lower-left of spreader relative to interposer LL
	sinkX0, sinkY0       float64

	builder *sparse.Builder
	cov     []float64 // per-cell silicon coverage of the chiplet layer
	kChip   []float64 // per-cell conductivity of the chiplet layer (scratch)
	power   []float64 // RHS (scratch)
	temps   []float64 // solution, reused as warm start
	warm    bool
	// warmGood is the field of the last *converged* solve. CG iterates in
	// place on temps, so an aborted solve leaves temps partial; warmGood is
	// what WarmState hands to checkpoints so a resume can reproduce the
	// warm start the next uninterrupted solve would have used.
	warmGood []float64

	// Incremental fast-path state (see incremental.go). fixed == nil means
	// the next Solve assembles from scratch and freezes the pattern;
	// rebuild means it rewrites every value in the frozen pattern (ResetCold).
	rebuild                              bool
	fixed                                *sparse.Fixed
	cg                                   *sparse.CGSolver
	plan                                 []chipDep
	cellDeps                             [][]int32
	prevSources                          []Source
	epoch                                int32
	cellEpoch                            []int32 // last epoch each chiplet-layer cell was re-rasterized
	depEpoch                             []int32 // last epoch each plan entry was recomputed
	slotEpoch                            []int32 // last epoch each CSR value slot was refreshed
	dirtyCells, changedCells, dirtySlots []int32

	// The preconditioner is modelKey.precond (Options.Precond resolved to
	// precondJacobi or precondMG). The multigrid hierarchy is built lazily
	// on the first mg-preconditioned solve (for a Jacobi model, on the first
	// recovery-ladder escalation) and rebuilt only when the assembled
	// matrix identity changes; valGen counts value-changing
	// assemblies and the hierarchy is numerically re-coarsened whenever it
	// advanced past mgGen, the generation of the last refresh. A refresh
	// recomputes only the hierarchy rows the changed fine rows reach (a few
	// percent per annealing move), while preconditioning with a stale
	// hierarchy measurably inflates iteration counts at fine grids
	// (anneal-scale footprint moves cross more cell boundaries there), so
	// eager refresh wins; power-only re-solves leave the values untouched
	// and skip it entirely. A refresh is a deterministic function of the
	// fine values, so the generation is the only staleness signal needed:
	// re-coarsening at an unchanged generation would rebuild the same
	// hierarchy bit for bit.
	mg     *sparse.Multigrid
	mgA    *sparse.CSR
	valGen int64
	mgGen  int64

	ctr    *metrics.Counters
	obs    *obs.Observer
	inject *faultinject.Injector

	// failed records that the last steady-state solve returned an error;
	// Release drops such a model. idle marks a model held by the pool.
	failed, idle bool
}

// Preconditioner names (Options.Precond values; empty means precondMG).
const (
	precondJacobi = "jacobi"
	precondMG     = "mg"
)

// cgTol is the CG relative residual tolerance, amply tight for ranking
// placements that differ by tenths of a degree.
const cgTol = 1e-6

// maxIterPerGrid scales the Jacobi CG iteration budget with the grid: CG on
// this conductance matrix converges in O(grid) iterations (its condition
// number grows like grid², and CG needs ~√cond steps). Observed cold-start
// Jacobi solves run well under 10·grid iterations, so 40·grid is a 4×+
// safety margin that still fails a genuinely divergent solve in seconds.
const maxIterPerGrid = 40

// mgMaxIter is the iteration budget of every multigrid-preconditioned CG
// attempt, whatever the grid. Each iteration there is one V-cycle (10–25 ms
// at grid 128 on a 2-vCPU host), and the count does not grow with the grid:
// cold solves take at most 13 iterations on the precondCases stacks at
// grids 8 to 132, odd ones included (TestMultigridEveryGrid), and 7 at
// grids from 48 to 256. 120 keeps a margin of about 10× and fails a
// stalled grid-128 attempt in seconds, where 40·grid cycles took minutes.
const mgMaxIter = 120

// withMG returns opt preconditioned by the multigrid hierarchy mg under the
// multigrid iteration budget.
func withMG(opt sparse.CGOptions, mg *sparse.Multigrid) sparse.CGOptions {
	opt.Precond, opt.MaxIter = mg, mgMaxIter
	return opt
}

// modelKey is what a model's construction reads of its options, normalized
// (the default grid and stack filled in, the preconditioner resolved): two
// models with equal keys are built alike, whatever Counters, Obs and Inject
// they were given. It keys the idle-model pool (pool.go).
type modelKey struct {
	widthMM, heightMM float64
	grid              int
	stack             material.Stack
	precond           string
	noInc, noRecover  bool
}

// newModelKey validates and normalizes NewModel's arguments. The stack's
// layers are copied, so a caller that edits its stack afterwards changes
// neither the model nor its key.
func newModelKey(widthMM, heightMM float64, opt Options) (modelKey, error) {
	k := modelKey{widthMM: widthMM, heightMM: heightMM, grid: opt.Grid,
		noInc: opt.DisableIncremental, noRecover: opt.DisableRecovery}
	if widthMM <= 0 || heightMM <= 0 {
		return k, fmt.Errorf("thermal: non-positive interposer dimensions %g x %g", widthMM, heightMM)
	}
	if k.grid == 0 {
		k.grid = 64
	}
	if k.grid < 2 {
		return k, fmt.Errorf("thermal: grid resolution %d too small", k.grid)
	}
	if opt.Stack != nil {
		k.stack = *opt.Stack
		k.stack.Layers = slices.Clone(k.stack.Layers)
	} else {
		k.stack = material.DefaultStack()
	}
	if err := k.stack.Validate(); err != nil {
		return k, err
	}
	if k.stack.ChipletLayerIndex() < 0 {
		return k, fmt.Errorf("thermal: stack has no chiplet power layer")
	}
	switch opt.Precond {
	case "", precondMG:
		k.precond = precondMG
	case precondJacobi:
		k.precond = precondJacobi
	default:
		return k, fmt.Errorf("thermal: unknown preconditioner %q (want jacobi or mg, or empty for mg)", opt.Precond)
	}
	return k, nil
}

// equal reports whether k and o build alike; the stack compares by value.
func (k *modelKey) equal(o *modelKey) bool {
	return k.widthMM == o.widthMM && k.heightMM == o.heightMM && k.grid == o.grid &&
		k.precond == o.precond && k.noInc == o.noInc && k.noRecover == o.noRecover &&
		reflect.DeepEqual(k.stack, o.stack)
}

// NewModel builds a model for an interposer of the given dimensions (mm).
// Acquire returns an idle model of the same construction from the pool
// when there is one.
func NewModel(widthMM, heightMM float64, opt Options) (*Model, error) {
	k, err := newModelKey(widthMM, heightMM, opt)
	if err != nil {
		return nil, err
	}
	return newModel(k, opt), nil
}

// newModel builds a model for the validated key k, counting into opt's
// Counters, Obs and Inject.
func newModel(k modelKey, opt Options) *Model {
	grid, stack := k.grid, k.stack
	m := &Model{
		modelKey:   k,
		maxIter:    maxIterPerGrid * grid,
		nDevLayers: len(stack.Layers),
		chipLayer:  stack.ChipletLayerIndex(),
	}
	g2 := grid * grid
	m.nNodes = (m.nDevLayers + 2) * g2 // +spreader +sink

	wm, hm := k.widthMM*1e-3, k.heightMM*1e-3
	m.cellW, m.cellH = wm/float64(grid), hm/float64(grid)

	m.sprEdgeW = wm * stack.SpreaderEdgeFactor
	m.sprEdgeH = hm * stack.SpreaderEdgeFactor
	m.sinkEdgeW = wm * stack.SinkEdgeFactor
	m.sinkEdgeH = hm * stack.SinkEdgeFactor
	m.sprCellW, m.sprCellH = m.sprEdgeW/float64(grid), m.sprEdgeH/float64(grid)
	m.sinkCellW, m.sinkCellH = m.sinkEdgeW/float64(grid), m.sinkEdgeH/float64(grid)
	m.sprX0 = (wm - m.sprEdgeW) / 2
	m.sprY0 = (hm - m.sprEdgeH) / 2
	m.sinkX0 = (wm - m.sinkEdgeW) / 2
	m.sinkY0 = (hm - m.sinkEdgeH) / 2

	m.builder = sparse.NewBuilder(m.nNodes)
	m.cov = make([]float64, g2)
	m.kChip = make([]float64, g2)
	m.power = make([]float64, m.nNodes)
	m.temps = make([]float64, m.nNodes)
	m.ctr = opt.Counters
	m.obs = opt.Obs
	m.inject = opt.Inject
	return m
}

// Grid returns the model's per-axis grid resolution.
func (m *Model) Grid() int { return m.grid }

// AmbientC returns the ambient temperature in Celsius.
func (m *Model) AmbientC() float64 { return m.stack.AmbientC }

// node index helpers: device layers first, then spreader, then sink.
func (m *Model) devNode(layer, i, j int) int { return (layer*m.grid+i)*m.grid + j }
func (m *Model) sprNode(i, j int) int        { return (m.nDevLayers*m.grid+i)*m.grid + j }
func (m *Model) sinkNode(i, j int) int       { return ((m.nDevLayers+1)*m.grid+i)*m.grid + j }

// Result holds a steady-state solution.
type Result struct {
	// PeakC is the peak temperature in Celsius over the chiplet layer.
	PeakC float64
	// PeakAt is the location (mm) of the hottest chiplet-layer cell center.
	PeakAt geom.Point
	// AvgC is the mean chiplet-layer temperature in Celsius.
	AvgC float64
	// AmbientC echoes the model's ambient.
	AmbientC float64
	// Grid is the per-axis resolution of ChipTempC.
	Grid int
	// WidthMM and HeightMM give the interposer extent of the temperature map.
	WidthMM, HeightMM float64
	// ChipTempC is the chiplet-layer temperature map in Celsius, row-major,
	// ChipTempC[i*Grid+j] with i indexing y (bottom to top) and j indexing x.
	ChipTempC []float64
	// Iterations is the CG iteration count of this solve (of the final
	// successful attempt, when the recovery ladder ran).
	Iterations int
	// Recovery is nil on the happy path and describes the escalations taken
	// when the solver recovery ladder rescued a non-converging solve. A
	// degraded result (relaxed tolerance) is flagged on it.
	Recovery *RecoveryInfo
}

// CellCenter returns the interposer-plane location (mm) of cell (i, j) of the
// temperature map.
func (r *Result) CellCenter(i, j int) geom.Point {
	return geom.Point{
		X: (float64(j) + 0.5) * r.WidthMM / float64(r.Grid),
		Y: (float64(i) + 0.5) * r.HeightMM / float64(r.Grid),
	}
}

// TempAt returns the chiplet-layer temperature (°C) at point p (mm), clamped
// to the map bounds.
func (r *Result) TempAt(p geom.Point) float64 {
	j := int(p.X / r.WidthMM * float64(r.Grid))
	i := int(p.Y / r.HeightMM * float64(r.Grid))
	j = clampInt(j, 0, r.Grid-1)
	i = clampInt(i, 0, r.Grid-1)
	return r.ChipTempC[i*r.Grid+j]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MaxRectC returns the peak temperature within the given footprint.
func (r *Result) MaxRectC(rect geom.Rect) float64 {
	peak := math.Inf(-1)
	for i := 0; i < r.Grid; i++ {
		for j := 0; j < r.Grid; j++ {
			if rect.Contains(r.CellCenter(i, j)) && r.ChipTempC[i*r.Grid+j] > peak {
				peak = r.ChipTempC[i*r.Grid+j]
			}
		}
	}
	if math.IsInf(peak, -1) {
		return r.TempAt(rect.Center)
	}
	return peak
}

// overlapFrac computes the fraction of device cell (i, j) covered by rect
// (rect in mm).
func (m *Model) cellRectMM(i, j int) geom.Rect {
	cw := m.widthMM / float64(m.grid)
	ch := m.heightMM / float64(m.grid)
	return geom.RectFromBounds(float64(j)*cw, float64(i)*ch, float64(j+1)*cw, float64(i+1)*ch)
}

func errNegativePower(p float64) error {
	return fmt.Errorf("thermal: negative source power %g", p)
}

func errBadFootprint(r geom.Rect) error {
	return fmt.Errorf("thermal: source with non-positive footprint %v", r)
}

// sourceWindow returns the half-open grid-cell window [i0,i1)×[j0,j1)
// containing source s's footprint.
func (m *Model) sourceWindow(s Source) (i0, i1, j0, j1 int) {
	g := m.grid
	j0 = clampInt(int(s.Rect.MinX()/m.widthMM*float64(g)), 0, g-1)
	j1 = clampInt(int(math.Ceil(s.Rect.MaxX()/m.widthMM*float64(g))), 0, g)
	i0 = clampInt(int(s.Rect.MinY()/m.heightMM*float64(g)), 0, g-1)
	i1 = clampInt(int(math.Ceil(s.Rect.MaxY()/m.heightMM*float64(g))), 0, g)
	return
}

// rasterize fills the per-cell silicon coverage, the chiplet-layer
// conductivity field and the power map from the source list.
func (m *Model) rasterize(sources []Source) error {
	g := m.grid
	kSi := material.Silicon.Conductivity
	base := m.stack.Layers[m.chipLayer].Base.Conductivity
	for i := range m.cov {
		m.cov[i] = 0
	}
	for i := range m.power {
		m.power[i] = 0
	}
	cellAreaMM := (m.widthMM / float64(g)) * (m.heightMM / float64(g))
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
				frac := ov / cellAreaMM
				m.cov[i*g+j] = math.Min(1, m.cov[i*g+j]+frac)
				m.power[m.devNode(m.chipLayer, i, j)] += perArea * ov
			}
		}
	}
	for i, c := range m.cov {
		m.kChip[i] = base + (kSi-base)*c
	}
	return nil
}

// Solve computes the steady-state temperature field for the given sources.
// Sources must lie on the interposer; power is injected into the chiplet
// layer, whose per-cell conductivity is silicon where covered by any source
// footprint and underfill elsewhere (area-weighted in partial cells).
//
// By default consecutive solves take the incremental path: the conductance
// matrix is assembled once, and later source lists update only the matrix
// values and power cells under the changed footprints. The temperatures are
// bit-identical to the full rebuild either way.
func (m *Model) Solve(sources []Source) (*Result, error) {
	return m.SolveContext(context.Background(), sources)
}

// SolveContext is Solve with cooperative cancellation: the conjugate-gradient
// loop polls ctx and aborts with ctx's error when it is done. An uncancelled
// SolveContext is bit-identical to Solve. After a canceled solve the model's
// warm start is invalidated, so a later Solve restarts from the cold-start
// guess.
func (m *Model) SolveContext(ctx context.Context, sources []Source) (*Result, error) {
	sp := m.obs.StartSpanCtx(ctx, obs.PhaseThermalSolve, "")
	res, err := m.solveSpanned(ctx, sp, sources)
	sp.End()
	m.failed = err != nil
	return res, err
}

// SolveScaled returns the steady-state fields of sources with every power
// multiplied by scales[c], one Result per scale. Conductances depend on the
// footprints alone and power enters only the right-hand side, so the model
// is linear in power: SolveScaled solves the unscaled sources once, through
// SolveContext (warm start, incremental assembly and recovery ladder
// included), and returns scales[c] times that temperature rise over the
// ambient. Every field therefore carries the nominal solve's relative
// residual, its iteration count and its Recovery; scale 1 is bit-identical
// to SolveContext and scale 0 is the ambient field. Scales must be finite
// and non-negative; an empty list runs no solve.
func (m *Model) SolveScaled(ctx context.Context, sources []Source, scales []float64) ([]*Result, error) {
	for c, s := range scales {
		if !(s >= 0) || math.IsInf(s, 1) {
			return nil, fmt.Errorf("thermal: power scale %d is %v; want a finite non-negative factor", c, s)
		}
	}
	if len(scales) == 0 {
		return nil, nil
	}
	nominal, err := m.SolveContext(ctx, sources)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, len(scales))
	for c, s := range scales {
		if results[c], err = m.buildResult(m.temps, s, nominal.Iterations); err != nil {
			return nil, err
		}
		results[c].Recovery = nominal.Recovery
	}
	return results, nil
}

// solveSpanned is the SolveContext body with sp (nil when observability is
// disabled) as the parent for assemble sub-spans.
func (m *Model) solveSpanned(ctx context.Context, sp *obs.Span, sources []Source) (*Result, error) {
	a, cg, err := m.prepareAssembled(sp, sources)
	if err != nil {
		return nil, err
	}
	return m.solveAssembled(ctx, sp, a, cg)
}

// prepareAssembled rasterizes sources and brings the conductance matrix up to
// date, via the full rebuild or the incremental delta path, and returns the
// assembled system: the front half of every steady-state solve.
func (m *Model) prepareAssembled(sp *obs.Span, sources []Source) (*sparse.CSR, *sparse.CGSolver, error) {
	if err := m.inject.Hit(faultinject.PointThermalAssemble); err != nil {
		return nil, nil, fmt.Errorf("thermal: %w", err)
	}
	if m.noInc {
		asp := sp.Child(obs.PhaseThermalAssemble, "full")
		err := m.rasterize(sources)
		var a *sparse.CSR
		if err == nil {
			m.assemble()
			a = m.builder.Build()
			m.valGen++
			if m.ctr != nil {
				m.ctr.FullAssembles++
			}
		}
		asp.End()
		if err != nil {
			return nil, nil, err
		}
		return a, nil, nil
	}

	if m.fixed == nil {
		asp := sp.Child(obs.PhaseThermalAssemble, "init")
		err := m.initIncremental(sources)
		asp.End()
		if err != nil {
			return nil, nil, err
		}
		m.valGen++
	} else if m.rebuild {
		asp := sp.Child(obs.PhaseThermalAssemble, "full")
		err := m.reassembleFixed(sources)
		asp.End()
		if err != nil {
			return nil, nil, err
		}
		m.valGen++
	} else {
		asp := sp.Child(obs.PhaseThermalAssemble, "delta")
		changed, err := m.rasterizeDelta(sources)
		if err == nil {
			m.assembleDelta(changed)
			if len(changed) > 0 {
				m.valGen++
			}
			if m.ctr != nil {
				if len(changed) == 0 {
					m.ctr.SkippedAssembles++
				} else {
					m.ctr.DeltaAssembles++
				}
			}
			if len(changed) == 0 {
				asp.SetLabel("skip")
			}
		}
		asp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	m.prevSources = append(m.prevSources[:0], sources...)
	return m.fixed.Mat, m.cg, nil
}

// ensureMG returns the multigrid hierarchy for the assembled matrix a,
// building it on first use (or when the matrix identity changed — a full
// rebuild or a DisableIncremental solve produces a fresh CSR) and numerically
// refreshing it after every value-changing assembly. The symbolic
// coarsening is cached process-wide by (geometry, pattern), so replicas and
// worker pools solving the same stack share it. Either step runs in an
// mg_refresh child of sp (labeled build or refresh).
func (m *Model) ensureMG(sp *obs.Span, a *sparse.CSR) (*sparse.Multigrid, error) {
	if m.mg == nil || m.mgA != a {
		geo := sparse.GridGeometry{Layers: m.nDevLayers + 2, Nx: m.grid, Ny: m.grid}
		msp := sp.Child(obs.PhaseMGRefresh, "build")
		mg, err := sparse.NewMultigrid(a, geo)
		msp.End()
		if err != nil {
			return nil, err
		}
		m.mg, m.mgA, m.mgGen = mg, a, m.valGen
		if m.ctr != nil {
			m.ctr.MGSetups++
		}
		m.obs.Add("mg_setup", 1)
		return mg, nil
	}
	if m.valGen != m.mgGen {
		msp := sp.Child(obs.PhaseMGRefresh, "refresh")
		err := m.mg.Refresh()
		msp.End()
		if err != nil {
			return nil, err
		}
		m.mgGen = m.valGen
		if m.ctr != nil {
			m.ctr.MGSetups++
		}
		m.obs.Add("mg_setup", 1)
	}
	return m.mg, nil
}

// ResetCold returns the model to the state of a new model built with the
// same construction options, keeping its allocations, and redirects its
// solve and assembly statistics to c, its spans to o and its fault points to
// inj (nil turns each off), so a caller that takes over a model from another
// owner counts its own solves apart from the counts already reported. The
// next solve starts from the cold guess, rewrites every matrix value over
// the whole grid in the frozen pattern (one full assembly) and re-coarsens
// the multigrid hierarchy numerically (one set-up): it equals a new model's
// first solve in bits and in counters, without a second matrix or
// hierarchy.
func (m *Model) ResetCold(c *metrics.Counters, o *obs.Observer, inj *faultinject.Injector) {
	m.ctr, m.obs, m.inject = c, o, inj
	m.warm = false
	m.warmGood = m.warmGood[:0]
	m.rebuild = m.fixed != nil
	m.failed = false
}

// addMGCycles records d V-cycles applied by the multigrid hierarchy.
func (m *Model) addMGCycles(d int64) {
	if d <= 0 {
		return
	}
	if m.ctr != nil {
		m.ctr.MGCycles += d
	}
	m.obs.Add("mg_cycles", d)
}

// WarmState returns a copy of the temperature field of the model's last
// *converged* solve, or nil when no solve has converged yet. Together with
// RestoreWarmState it lets a checkpointed placement run resume
// bit-compatibly: the CG trajectory depends on the initial guess, so the
// field must travel with the annealer's checkpoint. The last converged field
// survives a canceled solve (which iterates in place and leaves the live
// warm-start buffer partial), so a checkpoint written after a mid-solve
// interruption still restores the warm start the interrupted step would
// have used.
func (m *Model) WarmState() []float64 {
	if len(m.warmGood) == 0 {
		return nil
	}
	s := make([]float64, len(m.warmGood))
	copy(s, m.warmGood)
	return s
}

// RestoreWarmState seeds the next solve's CG initial guess with a field
// previously captured by WarmState. Passing nil (or an empty slice) resets
// the model to a cold start.
func (m *Model) RestoreWarmState(temps []float64) error {
	if len(temps) == 0 {
		m.warm = false
		m.warmGood = m.warmGood[:0]
		return nil
	}
	if len(temps) != m.nNodes {
		return fmt.Errorf("thermal: warm state has %d nodes, model has %d", len(temps), m.nNodes)
	}
	copy(m.temps, temps)
	m.warm = true
	m.warmGood = append(m.warmGood[:0], temps...)
	return nil
}

// solveAssembled runs CG on the assembled system and extracts the result.
// When cg is non-nil its scratch buffers are reused; otherwise a one-shot
// solve runs on a (bit-identical, just slower to set up). sp (nil when
// observability is disabled) parents the hierarchy's mg_refresh span.
func (m *Model) solveAssembled(ctx context.Context, sp *obs.Span, a *sparse.CSR, cg *sparse.CGSolver) (*Result, error) {
	if !m.warm {
		m.coldGuess()
	}
	opt := sparse.CGOptions{Tol: cgTol, MaxIter: m.maxIter, Inject: m.inject}
	if m.precond == precondMG {
		mg, err := m.ensureMG(sp, a)
		if err != nil {
			m.warm = false
			return nil, fmt.Errorf("thermal: %w", err)
		}
		opt = withMG(opt, mg)
	}
	iters, err := m.runCG(ctx, a, cg, opt)
	var rec *RecoveryInfo
	if err != nil && recoverable(ctx, err) && !m.noRecover {
		rec, iters, err = m.recoverSolve(ctx, a, cg, opt)
	}
	if err != nil {
		m.warm = false
		return nil, fmt.Errorf("thermal: %w", err)
	}
	res, err := m.buildResult(m.temps, 1, iters)
	if err != nil {
		m.warm = false
		return nil, err
	}
	m.warm = true
	m.warmGood = append(m.warmGood[:0], m.temps...)
	if m.ctr != nil {
		m.ctr.ThermalSolves++
		m.ctr.CGIterations += int64(iters)
	}
	res.Recovery = rec
	return res, nil
}

// buildResult extracts the chiplet-layer temperature map and its summary
// statistics from scale times a solved temperature-rise field. The product
// is rounded on its own before the ambient is added (no fused multiply-add),
// so scale 1 reproduces the unscaled field bit for bit. A field with a
// non-finite temperature, which makes the sum non-finite, is an error.
func (m *Model) buildResult(temps []float64, scale float64, iters int) (*Result, error) {
	g := m.grid
	g2 := g * g
	res := &Result{
		AmbientC:  m.stack.AmbientC,
		Grid:      g,
		WidthMM:   m.widthMM,
		HeightMM:  m.heightMM,
		ChipTempC: make([]float64, g2),
	}
	res.Iterations = iters
	peak, sum := math.Inf(-1), 0.0
	pi, pj := 0, 0
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			t := float64(scale*temps[m.devNode(m.chipLayer, i, j)]) + m.stack.AmbientC
			res.ChipTempC[i*g+j] = t
			sum += t
			if t > peak {
				peak, pi, pj = t, i, j
			}
		}
	}
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("thermal: chiplet-layer temperatures sum to %v; the field is not finite", sum)
	}
	res.PeakC = peak
	res.AvgC = sum / float64(g2)
	res.PeakAt = res.CellCenter(pi, pj)
	return res, nil
}

// layerK returns the conductivity of cell (i, j) in device layer l.
func (m *Model) layerK(l, i, j int) float64 {
	if l == m.chipLayer {
		return m.kChip[i*m.grid+j]
	}
	return m.stack.Layers[l].Base.Conductivity
}

// Conductance formulas, shared verbatim between the full assembly and the
// incremental delta path so both produce bit-identical values for the same
// kChip field.

// latCondE is the lateral conductance between cells (i,j) and (i,j+1) of
// layer l: two half-cell resistances in series.
func (m *Model) latCondE(l, i, j int) float64 {
	t := m.stack.Layers[l].Thickness
	k := m.layerK(l, i, j)
	ke := m.layerK(l, i, j+1)
	return t * m.cellH / (m.cellW/(2*k) + m.cellW/(2*ke))
}

// latCondN is the lateral conductance between cells (i,j) and (i+1,j).
func (m *Model) latCondN(l, i, j int) float64 {
	t := m.stack.Layers[l].Thickness
	k := m.layerK(l, i, j)
	kn := m.layerK(l, i+1, j)
	return t * m.cellW / (m.cellH/(2*k) + m.cellH/(2*kn))
}

// vertCond is the vertical conductance between cell (i,j) of layers l and l+1.
func (m *Model) vertCond(l, i, j int) float64 {
	t := m.stack.Layers[l].Thickness
	tu := m.stack.Layers[l+1].Thickness
	k := m.layerK(l, i, j)
	ku := m.layerK(l+1, i, j)
	return m.cellW * m.cellH / (t/(2*k) + tu/(2*ku))
}

// sprCouplingCond is the conductance from top device cell (i,j) into the
// spreader cell above it.
func (m *Model) sprCouplingCond(i, j int) float64 {
	top := m.nDevLayers - 1
	tTop := m.stack.Layers[top].Thickness
	kCu := material.Copper.Conductivity
	tSpr := m.stack.SpreaderThickness
	k := m.layerK(top, i, j)
	return m.cellW * m.cellH / (tTop/(2*k) + tSpr/(2*kCu))
}

// assemble rebuilds the conductance matrix for the current kChip field.
func (m *Model) assemble() { m.assembleFull(false) }

// entryCount is the number of coordinate entries assembleFull adds: four per
// AddSym and one per AddDiag (every conductance is positive, so Add drops
// none).
func (m *Model) entryCount() int {
	g2 := m.grid * m.grid
	lat := 2 * m.grid * (m.grid - 1)               // east and north couplings of one plane
	syms := m.nDevLayers*lat + (m.nDevLayers-1)*g2 // device lateral and vertical
	syms += g2                                     // top device layer to spreader
	syms += lat + g2                               // spreader lateral, spreader to sink
	syms += lat                                    // sink lateral
	diags := g2                                    // sink convection
	if m.stack.BoardConductance > 0 {
		diags += g2
	}
	return 4*syms + diags
}

// assembleFull rebuilds the full coordinate list in the builder. With record
// set, it additionally notes every kChip-dependent entry in m.plan so the
// delta path can later rewrite exactly those values.
func (m *Model) assembleFull(record bool) {
	b := m.builder
	b.Reset()
	b.Grow(m.entryCount())
	g := m.grid
	cw, ch := m.cellW, m.cellH

	// Device layers: lateral + vertical conductances.
	for l := 0; l < m.nDevLayers; l++ {
		onChip := l == m.chipLayer
		belowChip := l+1 == m.chipLayer
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				n := m.devNode(l, i, j)
				// Lateral east: series of two half-cells.
				if j+1 < g {
					gcond := m.latCondE(l, i, j)
					if record && onChip {
						m.addSymRecorded(depLatE, i, j, n, m.devNode(l, i, j+1), gcond)
					} else {
						b.AddSym(n, m.devNode(l, i, j+1), gcond)
					}
				}
				// Lateral north.
				if i+1 < g {
					gcond := m.latCondN(l, i, j)
					if record && onChip {
						m.addSymRecorded(depLatN, i, j, n, m.devNode(l, i+1, j), gcond)
					} else {
						b.AddSym(n, m.devNode(l, i+1, j), gcond)
					}
				}
				// Vertical up to next device layer.
				if l+1 < m.nDevLayers {
					gcond := m.vertCond(l, i, j)
					if record && (onChip || belowChip) {
						kind := depVertDn
						if onChip {
							kind = depVertUp
						}
						m.addSymRecorded(kind, i, j, n, m.devNode(l+1, i, j), gcond)
					} else {
						b.AddSym(n, m.devNode(l+1, i, j), gcond)
					}
				}
			}
		}
	}

	// Substrate bottom: weak board path to ambient, distributed uniformly.
	if m.stack.BoardConductance > 0 {
		per := m.stack.BoardConductance / float64(g*g)
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				b.AddDiag(m.devNode(0, i, j), per)
			}
		}
	}

	// TIM top -> spreader: couple each top device cell to the spreader cell
	// containing its center.
	top := m.nDevLayers - 1
	kCu := material.Copper.Conductivity
	tSpr := m.stack.SpreaderThickness
	chipOnTop := top == m.chipLayer
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			cx := (float64(j) + 0.5) * cw
			cy := (float64(i) + 0.5) * ch
			sj := clampInt(int((cx-m.sprX0)/m.sprCellW), 0, g-1)
			si := clampInt(int((cy-m.sprY0)/m.sprCellH), 0, g-1)
			gcond := m.sprCouplingCond(i, j)
			if record && chipOnTop {
				m.addSymRecorded(depSpr, i, j, m.devNode(top, i, j), m.sprNode(si, sj), gcond)
			} else {
				b.AddSym(m.devNode(top, i, j), m.sprNode(si, sj), gcond)
			}
		}
	}

	// Spreader lateral + spreader->sink vertical.
	sprA := m.sprCellW * m.sprCellH
	tSink := m.stack.SinkThickness
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			n := m.sprNode(i, j)
			if j+1 < g {
				b.AddSym(n, m.sprNode(i, j+1), kCu*tSpr*m.sprCellH/m.sprCellW)
			}
			if i+1 < g {
				b.AddSym(n, m.sprNode(i+1, j), kCu*tSpr*m.sprCellW/m.sprCellH)
			}
			// Spreader cell center -> containing sink cell.
			cx := m.sprX0 + (float64(j)+0.5)*m.sprCellW
			cy := m.sprY0 + (float64(i)+0.5)*m.sprCellH
			sj := clampInt(int((cx-m.sinkX0)/m.sinkCellW), 0, g-1)
			si := clampInt(int((cy-m.sinkY0)/m.sinkCellH), 0, g-1)
			gcond := sprA / (tSpr/(2*kCu) + tSink/(2*kCu))
			b.AddSym(n, m.sinkNode(si, sj), gcond)
		}
	}

	// Sink lateral + convection to ambient. The fin factor accounts for fin
	// mass spreading heat across the base plate.
	fin := m.stack.SinkFinFactor
	if fin <= 0 {
		fin = 1
	}
	tSinkLat := tSink * fin
	convPerCell := 1 / m.stack.ConvectionResistance / float64(g*g)
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			n := m.sinkNode(i, j)
			if j+1 < g {
				b.AddSym(n, m.sinkNode(i, j+1), kCu*tSinkLat*m.sinkCellH/m.sinkCellW)
			}
			if i+1 < g {
				b.AddSym(n, m.sinkNode(i+1, j), kCu*tSinkLat*m.sinkCellW/m.sinkCellH)
			}
			b.AddDiag(n, convPerCell)
		}
	}
}
