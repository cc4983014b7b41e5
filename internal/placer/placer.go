// Package placer implements the TAP-2.5D thermally-aware chiplet placement
// algorithm (Section III-C of the paper): simulated annealing over the
// Occupation Chiplet Matrix with move, rotate and jump operators, the
// dynamically-weighted cost function of Eqns. (12)-(13), and the acceptance
// probability and annealing schedule of Eqn. (14) (K decaying from 1 to 0.01
// by a factor of 0.95).
//
// The placer is generic over an Evaluator so tests can use cheap synthetic
// objectives; production code uses SystemEvaluator, which couples the
// finite-difference thermal model with the fast inter-chiplet router.
package placer

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"tap25d/internal/btree"
	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
	"tap25d/internal/ocm"
	"tap25d/internal/route"
	"tap25d/internal/thermal"
)

// Evaluator scores a placement: peak temperature (°C) and total inter-chiplet
// wirelength (mm). Implementations may be stateful (warm starts) and need not
// be safe for concurrent use.
type Evaluator interface {
	Evaluate(p chiplet.Placement) (tempC, wirelengthMM float64, err error)
}

// ContextEvaluator is implemented by evaluators that support cooperative
// cancellation. The annealer prefers EvaluateContext when available, so a
// deadline or SIGINT can abort mid-solve instead of waiting out a full
// thermal evaluation.
type ContextEvaluator interface {
	Evaluator
	EvaluateContext(ctx context.Context, p chiplet.Placement) (tempC, wirelengthMM float64, err error)
}

// MetricsProvider is implemented by evaluators that expose evaluation
// counters. Read the counters only after the evaluator's run has finished;
// they are not synchronized.
type MetricsProvider interface {
	Metrics() metrics.Counters
}

// counterSource lets a wrapping evaluator share its inner evaluator's
// counter instance, so counts accumulate in one place regardless of nesting.
type counterSource interface {
	counters() *metrics.Counters
}

// evaluate dispatches through EvaluateContext when the evaluator supports it.
func evaluate(ctx context.Context, ev Evaluator, p chiplet.Placement) (float64, float64, error) {
	if ce, ok := ev.(ContextEvaluator); ok {
		return ce.EvaluateContext(ctx, p)
	}
	return ev.Evaluate(p)
}

// SystemEvaluator is the production evaluator: thermal simulation plus the
// fast router.
type SystemEvaluator struct {
	sys   *chiplet.System
	model *thermal.Model
	ropts route.Options
	ctr   *metrics.Counters
}

// NewSystemEvaluator builds an evaluator for sys with the given thermal and
// routing options, on a thermal model taken from the idle pool
// (thermal.Acquire). The thermal model's counters are shared with the
// evaluator's own (topt.Counters is honored when set; otherwise one is
// allocated), so Metrics reports solver and evaluation statistics together.
func NewSystemEvaluator(sys *chiplet.System, topt thermal.Options, ropt route.Options) (*SystemEvaluator, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	ctr := topt.Counters
	if ctr == nil {
		ctr = &metrics.Counters{}
		topt.Counters = ctr
	}
	m, err := thermal.Acquire(sys.InterposerW, sys.InterposerH, topt)
	if err != nil {
		return nil, err
	}
	return &SystemEvaluator{sys: sys, model: m, ropts: ropt, ctr: ctr}, nil
}

// Sources converts a placement into thermal heat sources (every chiplet
// contributes its silicon footprint; dummy dies carry zero power but still
// conduct heat).
func Sources(sys *chiplet.System, p chiplet.Placement) []thermal.Source {
	srcs := make([]thermal.Source, len(sys.Chiplets))
	for i := range sys.Chiplets {
		srcs[i] = thermal.Source{Rect: p.Rect(sys, i), Power: sys.Chiplets[i].Power}
	}
	return srcs
}

// Evaluate implements Evaluator.
func (e *SystemEvaluator) Evaluate(p chiplet.Placement) (float64, float64, error) {
	return e.EvaluateContext(context.Background(), p)
}

// EvaluateContext implements ContextEvaluator: the thermal solve polls ctx
// and aborts with its error when the context is done (the router is fast
// enough to always run to completion).
func (e *SystemEvaluator) EvaluateContext(ctx context.Context, p chiplet.Placement) (float64, float64, error) {
	e.ctr.Evaluations++
	res, err := e.model.SolveContext(ctx, Sources(e.sys, p))
	if err != nil {
		return 0, 0, err
	}
	e.ctr.RouteCalls++
	r, err := route.RouteContext(ctx, e.sys, p, e.ropts)
	if err != nil {
		return 0, 0, err
	}
	return res.PeakC, r.TotalWirelengthMM, nil
}

// systemEvalState is the serialized form of a SystemEvaluator's mutable
// state: the thermal model's warm-start field (the router is stateless).
type systemEvalState struct {
	WarmTemps []float64
}

// CheckpointState implements StateCheckpointer by capturing the thermal
// model's warm-start temperature field, which seeds the next solve's CG
// iteration and therefore shapes the exact evaluation trajectory.
func (e *SystemEvaluator) CheckpointState() ([]byte, error) {
	var buf bytes.Buffer
	st := systemEvalState{WarmTemps: e.model.WarmState()}
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("placer: encoding evaluator state: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements StateCheckpointer.
func (e *SystemEvaluator) RestoreState(state []byte) error {
	var st systemEvalState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&st); err != nil {
		return fmt.Errorf("placer: decoding evaluator state: %w", err)
	}
	return e.model.RestoreWarmState(st.WarmTemps)
}

// Thermal exposes the underlying thermal model (for rendering maps of the
// final placement).
func (e *SystemEvaluator) Thermal() *thermal.Model { return e.model }

// Metrics returns the evaluation counters accumulated so far.
func (e *SystemEvaluator) Metrics() metrics.Counters { return *e.ctr }

func (e *SystemEvaluator) counters() *metrics.Counters { return e.ctr }

// Op identifies a neighbor-generation operator (Fig. 2b-d).
type Op int

// Neighbor operators.
const (
	OpMove Op = iota
	OpRotate
	OpJump
)

func (o Op) String() string {
	switch o {
	case OpMove:
		return "move"
	case OpRotate:
		return "rotate"
	case OpJump:
		return "jump"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// The annealing temperature schedule of Section III-C5: K decays from kStart
// to kEnd by a factor kDecay per level.
const (
	kStart = 1.0
	kEnd   = 0.01
	kDecay = 0.95
)

// The neighbor operator mix (the paper does not publish its mix).
// Options.DisableJump zeroes jumpWeight.
const (
	moveWeight   = 0.5
	rotateWeight = 0.25
	jumpWeight   = 0.25
)

// Options configures the annealer. The zero value reproduces the paper's
// settings except Steps, which defaults to 1000 for tractability; the paper
// calibrates 4500 steps to fill a 25-hour budget with HotSpot+CPLEX in the
// loop.
type Options struct {
	// Steps is the number of SA steps per run (default 1000).
	Steps int
	// Seed makes runs reproducible. Run r of a multi-run uses Seed+r.
	Seed int64
	// CriticalC is the temperature threshold of Eqn. (13) (default 85).
	CriticalC float64
	// Initial overrides the starting placement. nil runs the Compact-2.5D
	// baseline (B*-tree + fast-SA) and legalizes it onto the OCM grid,
	// exactly as Section III-C2 prescribes.
	Initial *chiplet.Placement
	// CompactSteps is the step budget for the initial Compact-2.5D run
	// (default 20000).
	CompactSteps int
	// DisableJump removes the jump operator (used by the E9 ablation to
	// demonstrate the 'sliding tile puzzle' issue of Section III-C3).
	DisableJump bool
	// FixedAlpha, when >= 0, replaces the dynamic alpha of Eqn. (13)
	// (used by the E9 ablation). Negative means dynamic (default).
	FixedAlpha float64
	// History records one Sample per step when true.
	History bool
	// EvalFailureBudget, when positive, is the number of consecutive
	// transient evaluation failures a run absorbs by skipping the failed
	// step (counted as step_eval_skipped and evented as step_skipped)
	// instead of aborting. Zero — the default — preserves the historical
	// fail-fast behavior: the first evaluation error ends the run. The
	// budget resets on every successful evaluation. Skipping changes the
	// trajectory only on steps that would otherwise have killed the run, so
	// failure-free runs are unaffected by any budget value.
	EvalFailureBudget int

	// Run orchestration. These fields do not affect the annealing
	// trajectory; the function-valued hooks are excluded from checkpoint
	// serialization and re-supplied by the resuming caller.

	// RunIndex identifies this run in events and checkpoints. PlaceBestOf
	// sets it to the run's index; leave zero for single runs.
	RunIndex int
	// Progress, when non-nil, receives structured events: one EventStep
	// every ProgressEvery completed steps, plus lifecycle events (resume,
	// checkpoint, final, interrupted). Shared across parallel runs it must
	// be safe for concurrent use.
	Progress EventFunc `json:"-"`
	// ProgressEvery is the step-event cadence (0 disables step events;
	// lifecycle events are emitted regardless whenever Progress is set).
	ProgressEvery int
	// CheckpointEvery hands a snapshot to Checkpoint every CheckpointEvery
	// completed steps (0 disables periodic snapshots). A final snapshot is
	// always written on context cancellation when Checkpoint is set.
	CheckpointEvery int
	// Checkpoint persists snapshots; a returned error aborts the run.
	Checkpoint CheckpointFunc `json:"-"`
	// Restore, when non-nil, is consulted once per run index before the run
	// starts: a non-nil checkpoint resumes that run in place of a fresh
	// start (see Resume for the bit-compatibility contract).
	Restore RestoreFunc `json:"-"`
	// Obs, when non-nil, receives span timings (SA steps, checkpoint
	// writes, the initial placement), the per-run SA time series, and run
	// lifecycle state. Like the hooks above it never affects the annealing
	// trajectory, is excluded from checkpoints, and is re-attached from the
	// live Options on Resume. It must be safe for concurrent use (it is, by
	// construction) when shared across PlaceBestOf runs.
	Obs *obs.Observer `json:"-"`
}

func (o Options) withDefaults() Options {
	if o.Steps == 0 {
		o.Steps = 1000
	}
	if o.CriticalC == 0 {
		o.CriticalC = 85
	}
	if o.CompactSteps == 0 {
		o.CompactSteps = 20000
	}
	if o.FixedAlpha == 0 {
		o.FixedAlpha = -1
	}
	return o
}

// Sample is one annealing step's record.
type Sample struct {
	Step         int
	Op           Op
	TempC        float64
	WirelengthMM float64
	Cost         float64
	K            float64
	Alpha        float64
	Accepted     bool
}

// Result is the outcome of a placement run.
type Result struct {
	Placement    chiplet.Placement
	PeakC        float64
	WirelengthMM float64
	// Initial diagnostics: the starting placement and its metrics.
	Initial           chiplet.Placement
	InitialPeakC      float64
	InitialWirelength float64
	Steps             int
	Accepted          int
	Run               int // index of the winning run in PlaceBestOf
	History           []Sample
	// Interrupted reports that the run stopped early on context
	// cancellation; Placement then holds the best solution found before the
	// interruption and Steps the number of steps actually completed.
	Interrupted bool
	// SkippedSteps counts steps consumed by transient evaluation failures
	// under Options.EvalFailureBudget (0 on a failure-free run).
	SkippedSteps int
	// RunFailures lists the runs of a PlaceBestOf fan-out that produced no
	// result (or were interrupted with an error), so a degraded
	// best-of-successful answer carries the reasons alongside the winner.
	RunFailures []RunFailure
	// Metrics carries the evaluator's counters when the evaluator exposes
	// them; for PlaceBestOf it aggregates the counters of every run.
	Metrics metrics.Counters
	// Surrogate carries the two-fidelity evaluation statistics when the run
	// used a surrogate-prescreening evaluator (nil otherwise); for
	// PlaceBestOf it pools the statistics of every run.
	Surrogate *SurrogateStats
	// Model is the winning run's thermal model when PlaceBestOf's
	// evaluators expose one (Thermal() *thermal.Model), nil otherwise, so a
	// caller that solves Placement once more (tap25d's final evaluation)
	// can reset it cold instead of building a new model; its hierarchy was
	// last refreshed near Placement. The caller owns it and may Release it.
	// It is never serialized.
	Model *thermal.Model `json:"-"`
}

// RunFailure attaches one failed run's reason to a degraded PlaceBestOf
// result.
type RunFailure struct {
	// Run is the failed run's index.
	Run int `json:"run"`
	// Err is the failure rendered as text (errors don't serialize).
	Err string `json:"err"`
}

// Alpha computes the dynamic temperature weight of Eqn. (13).
func Alpha(tempC, ambientC, criticalC float64) float64 {
	if tempC > criticalC {
		return math.Min(0.1+(tempC-ambientC)/100, 0.9)
	}
	return 0
}

// Better reports whether solution a dominates b under the paper's selection
// rule: a thermally feasible solution (peak <= critical) beats an infeasible
// one; among feasible solutions lower wirelength wins; among infeasible ones
// lower temperature wins (wirelength breaking ties). Used to pick across
// independent runs; within a run the annealer tracks its best solution with
// the Eqn. (12) cost so wirelength keeps its weight (see betterCost).
func Better(aTemp, aWL, bTemp, bWL, criticalC float64) bool {
	aOK, bOK := aTemp <= criticalC, bTemp <= criticalC
	switch {
	case aOK && !bOK:
		return true
	case !aOK && bOK:
		return false
	case aOK && bOK:
		return aWL < bWL
	default:
		if aTemp != bTemp {
			return aTemp < bTemp
		}
		return aWL < bWL
	}
}

// betterCost reports whether (aTemp, aWL) beats (bTemp, bWL) for best-seen
// tracking inside a run: feasibility first, lower wirelength among feasible
// solutions, and the alpha-weighted Eqn. (12) cost (under the run's current
// min-max bounds) among infeasible ones. The last case is what keeps the
// reported solution from trading unbounded wirelength for millidegrees when
// the whole design space is above the critical temperature (as in the
// paper's Multi-GPU case study, where the best solution still has only ~10%
// more wire than Compact-2.5D at ~4 C lower temperature).
func betterCost(aTemp, aWL, bTemp, bWL float64, bounds *normBounds, opt Options) bool {
	crit := opt.CriticalC
	aOK, bOK := aTemp <= crit, bTemp <= crit
	switch {
	case aOK && !bOK:
		return true
	case !aOK && bOK:
		return false
	case aOK && bOK:
		return aWL < bWL
	default:
		alpha := opt.FixedAlpha
		if alpha < 0 {
			alpha = Alpha(math.Max(aTemp, bTemp), material.AmbientC, opt.CriticalC)
		}
		return bounds.cost(aTemp, aWL, alpha) < bounds.cost(bTemp, bWL, alpha)
	}
}

// normBounds implements the min-max scaling of Eqn. (12) over a sliding
// window of recent observations. A window (rather than the all-time extremes)
// keeps the normalized cost differences on a scale the annealing temperature
// K (1 -> 0.01) can discriminate: with all-time bounds, one early excursion
// to a very hot or very long-wire placement would flatten every subsequent
// cost difference toward zero and the anneal would degenerate into a random
// walk.
type normBounds struct {
	size int
	ts   []float64
	ws   []float64
	idx  int
}

// windowSize is the number of recent evaluations the scaling spans.
const windowSize = 200

func newNormBounds(size int) normBounds {
	if size <= 0 {
		size = windowSize
	}
	return normBounds{size: size}
}

func (n *normBounds) observe(t, w float64) {
	if len(n.ts) < n.size {
		n.ts = append(n.ts, t)
		n.ws = append(n.ws, w)
		return
	}
	n.ts[n.idx] = t
	n.ws[n.idx] = w
	n.idx = (n.idx + 1) % n.size
}

func (n *normBounds) ranges() (tMin, tMax, wMin, wMax float64) {
	tMin, tMax = math.Inf(1), math.Inf(-1)
	wMin, wMax = math.Inf(1), math.Inf(-1)
	for i := range n.ts {
		tMin = math.Min(tMin, n.ts[i])
		tMax = math.Max(tMax, n.ts[i])
		wMin = math.Min(wMin, n.ws[i])
		wMax = math.Max(wMax, n.ws[i])
	}
	return
}

// cost evaluates Eqn. (12) under the current window with weight alpha.
// Values outside the window bounds extrapolate linearly, so comparisons stay
// monotone in the raw metrics.
func (n *normBounds) cost(t, w, alpha float64) float64 {
	if len(n.ts) == 0 {
		return 0
	}
	tMin, tMax, wMin, wMax := n.ranges()
	tn := 0.0
	if tMax > tMin {
		tn = (t - tMin) / (tMax - tMin)
	}
	wn := 0.0
	if wMax > wMin {
		wn = (w - wMin) / (wMax - wMin)
	}
	return alpha*tn + (1-alpha)*wn
}

// saState is the complete mutable state of one annealing run. Everything a
// checkpoint must capture lives here (or is derivable from opt), which is
// what makes snapshot/resume a mechanical copy rather than a re-derivation.
type saState struct {
	sys  *chiplet.System
	grid *ocm.Grid
	ev   Evaluator
	opt  Options

	src *countingSource
	rng *rand.Rand

	res    *Result
	bounds normBounds

	cur, best    chiplet.Placement
	curT, curW   float64
	bestT, bestW float64
	k            float64
	step         int

	// Step-entry snapshots, refreshed at the top of every anneal iteration;
	// interrupt checkpoints use these so a step aborted mid-evaluation is
	// re-executed from scratch on resume (same neighbor draw, same K).
	drawsAtTop uint64
	kAtTop     float64

	// evalFails counts consecutive transient evaluation failures against
	// Options.EvalFailureBudget; any successful evaluation resets it.
	evalFails int
}

// Place runs one simulated-annealing placement for sys using ev.
func Place(sys *chiplet.System, ev Evaluator, opt Options) (*Result, error) {
	return PlaceContext(context.Background(), sys, ev, opt)
}

// PlaceContext is Place with run orchestration: ctx cancellation (or
// deadline expiry) aborts the run cleanly — the best-so-far Result is
// returned alongside ctx's error, a final checkpoint is written when
// Options.Checkpoint is set, and an EventInterrupted is emitted. When
// Options.Restore yields a checkpoint for this run index, the run resumes
// from it instead of starting fresh.
//
// On interruption both return values are non-nil: callers that want the
// partial solution must check the Result even when err != nil
// (errors.Is(err, context.Canceled) or context.DeadlineExceeded).
func PlaceContext(ctx context.Context, sys *chiplet.System, ev Evaluator, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if opt.Restore != nil {
		cp, err := opt.Restore(opt.RunIndex)
		if err != nil {
			return nil, fmt.Errorf("placer: restoring run %d: %w", opt.RunIndex, err)
		}
		if cp != nil {
			return Resume(ctx, sys, ev, cp, opt)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	grid, err := ocm.NewGrid(sys, ocm.DefaultPitchMM)
	if err != nil {
		return nil, err
	}
	src := newCountingSource(opt.Seed)
	rng := rand.New(src)

	// Initial placement: Compact-2.5D unless provided.
	isp := opt.Obs.StartSpanCtx(ctx, obs.PhaseInitialPlacement, "")
	var init chiplet.Placement
	if opt.Initial != nil {
		init = opt.Initial.Clone()
	} else {
		cres, err := btree.PlaceCompact(sys, btree.Options{Seed: opt.Seed, Steps: opt.CompactSteps})
		if err != nil {
			isp.End()
			return nil, fmt.Errorf("placer: initial compact placement: %w", err)
		}
		init = cres.Placement
	}
	init, err = grid.Legalize(sys, init)
	if err != nil {
		isp.End()
		return nil, fmt.Errorf("placer: legalizing initial placement: %w", err)
	}

	t0, w0, err := evaluate(obs.ContextWithSpan(ctx, isp), ev, init)
	isp.End()
	if err != nil {
		return nil, fmt.Errorf("placer: evaluating initial placement: %w", err)
	}

	st := &saState{
		sys: sys, grid: grid, ev: ev, opt: opt,
		src: src, rng: rng,
		res: &Result{
			Initial:           init.Clone(),
			InitialPeakC:      t0,
			InitialWirelength: w0,
			Run:               opt.RunIndex,
		},
		bounds: newNormBounds(windowSize),
		cur:    init.Clone(),
		curT:   t0, curW: w0,
		bestT: t0, bestW: w0,
		k: kStart,
	}
	st.drawsAtTop, st.kAtTop = st.src.draws, st.k
	st.bounds.observe(t0, w0)
	st.best = st.cur.Clone()
	return st.anneal(ctx)
}

// Resume continues a checkpointed run. The algorithmic configuration comes
// from the checkpoint (so a resumed run cannot silently diverge from the
// original); only the orchestration hooks — Progress, ProgressEvery,
// CheckpointEvery, Checkpoint — are taken from live. The evaluator should be
// freshly constructed with the same configuration as the original run; when
// it implements StateCheckpointer, its snapshotted state is restored and the
// resumed trajectory is bit-compatible with an uninterrupted run at the same
// seed.
func Resume(ctx context.Context, sys *chiplet.System, ev Evaluator, cp *Checkpoint, live Options) (*Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if err := cp.Validate(sys); err != nil {
		return nil, err
	}
	opt := cp.Options.withDefaults()
	opt.Progress = live.Progress
	opt.ProgressEvery = live.ProgressEvery
	opt.CheckpointEvery = live.CheckpointEvery
	opt.Checkpoint = live.Checkpoint
	opt.Obs = live.Obs
	opt.RunIndex = cp.Run

	grid, err := ocm.NewGrid(sys, ocm.DefaultPitchMM)
	if err != nil {
		return nil, err
	}
	src := newCountingSource(cp.RNGSeed)
	src.skip(cp.RNGDraws)

	if len(cp.EvalState) > 0 {
		if sc, ok := ev.(StateCheckpointer); ok {
			if err := sc.RestoreState(cp.EvalState); err != nil {
				return nil, err
			}
		}
	}

	size := cp.BoundsSize
	if size <= 0 {
		size = windowSize
	}
	bounds := newNormBounds(size)
	bounds.ts = append(bounds.ts, cp.BoundsT...)
	bounds.ws = append(bounds.ws, cp.BoundsW...)
	bounds.idx = cp.BoundsIdx

	st := &saState{
		sys: sys, grid: grid, ev: ev, opt: opt,
		src: src, rng: rand.New(src),
		res: &Result{
			Initial:           cp.Initial.Clone(),
			InitialPeakC:      cp.InitialPeakC,
			InitialWirelength: cp.InitialWirelengthMM,
			Steps:             cp.CompletedSteps,
			Accepted:          cp.Accepted,
			History:           append([]Sample(nil), cp.History...),
			Run:               cp.Run,
		},
		bounds: bounds,
		cur:    cp.Cur.Clone(),
		curT:   cp.CurTempC, curW: cp.CurWirelengthMM,
		best:  cp.Best.Clone(),
		bestT: cp.BestTempC, bestW: cp.BestWirelengthMM,
		k:    cp.K,
		step: cp.Step,
	}
	st.drawsAtTop, st.kAtTop = st.src.draws, st.k
	if ctr := st.counters(); ctr != nil {
		ctr.Resumes++
	}
	st.emit(Event{Kind: EventResume, Step: st.res.Steps})
	return st.anneal(ctx)
}

// anneal executes the SA loop from st.step to the step budget. The loop body
// reproduces the original single-function annealer exactly — same draw
// order, same arithmetic — so orchestration (cancellation polls, event
// emission, checkpointing) adds observability without perturbing results.
//
// When the evaluator implements prescreener, each step becomes two-fidelity:
// the candidate is first scored by the surrogate, and only moves the
// surrogate cannot confidently reject (Metropolis on predicted cost, padded
// by the margin) pay the exact evaluation, which alone drives acceptance.
// With a non-prescreening evaluator the loop is branch-for-branch identical
// to the single-fidelity annealer, including RNG draw order.
func (st *saState) anneal(ctx context.Context) (*Result, error) {
	opt := st.opt
	opt.Obs.SetRunState(opt.RunIndex, "running")
	pre, _ := st.ev.(prescreener)

	// Annealing schedule: K decays by kDecay once per level; levels are
	// spread evenly over the step budget.
	levels := int(math.Ceil(math.Log(kEnd/kStart) / math.Log(kDecay)))
	if levels < 1 {
		levels = 1
	}
	stepsPerLevel := opt.Steps / levels
	if stepsPerLevel < 1 {
		stepsPerLevel = 1
	}

	for ; st.step < opt.Steps; st.step++ {
		// Snapshot the step-entry RNG position and annealing temperature:
		// a cancellation noticed mid-step (the evaluate below aborts) must
		// checkpoint the state *before* this step drew its neighbor or
		// decayed K, since the resumed run re-executes the step from the
		// top — otherwise it would draw a different perturbation.
		st.drawsAtTop, st.kAtTop = st.src.draws, st.k
		if err := ctx.Err(); err != nil {
			return st.interrupt(ctx, err)
		}
		step := st.step
		if step > 0 && step%stepsPerLevel == 0 && st.k > kEnd {
			st.k *= kDecay
			if st.k < kEnd {
				st.k = kEnd
			}
		}
		sp := opt.Obs.StartSpanCtx(ctx, obs.PhaseSAStep, "")
		nb, op, ok := neighbor(st.sys, st.grid, st.cur, st.rng, opt)
		if !ok {
			sp.End()
			continue // no valid perturbation found this step
		}
		var nbT, nbW, nbCost, alpha float64
		var accepted bool
		exact := true
		if pre != nil {
			predT, predW, ready, perr := pre.Prescreen(obs.ContextWithSpan(ctx, sp), st.cur, nb, st.curT)
			if perr != nil {
				sp.End()
				res, ferr, skip := st.stepEvalFailed(ctx, step, perr)
				if skip {
					continue
				}
				return res, ferr
			}
			if ready {
				alpha = opt.FixedAlpha
				if alpha < 0 {
					alpha = Alpha(math.Max(st.curT, predT), material.AmbientC, opt.CriticalC)
				}
				curCost := st.bounds.cost(st.curT, st.curW, alpha)
				predCost := st.bounds.cost(predT, predW, alpha)
				// Metropolis on the predicted cost at the sharpened prescreen
				// temperature k/sharpen, padded by the margin: candidates
				// predicted worse than the margin are declined decisively,
				// while predicted-improving and within-margin moves always
				// fall through to the exact solver, which alone decides
				// acceptance. The sharpening ramps with annealing progress —
				// near K=kStart the prescreen mirrors the exact Metropolis
				// test and defers to the high-temperature exploration the
				// schedule intends; as K cools toward kEnd it approaches the
				// configured decisiveness, declining the ever-larger fraction
				// of proposals the converging anneal would reject anyway.
				// Predicted values never feed the normalization window.
				margin, sharpen := pre.PrescreenPolicy()
				// Progress is linear in the schedule's level index (K decays
				// geometrically), 0 at kStart and 1 at kEnd.
				progress := math.Log(kStart/st.k) / math.Log(kStart/kEnd)
				eff := 1 + (sharpen-1)*progress
				ap := math.Exp((curCost - predCost + margin) * eff / st.k)
				if ap < 1 && st.rng.Float64() >= ap {
					exact = false
					nbT, nbW, nbCost = predT, predW, predCost
					if aerr := pre.MaybeAudit(obs.ContextWithSpan(ctx, sp), nb, predT); aerr != nil {
						sp.End()
						res, ferr, skip := st.stepEvalFailed(ctx, step, aerr)
						if skip {
							continue
						}
						return res, ferr
					}
					st.evalFails = 0
				}
			}
		}
		if exact {
			var err error
			nbT, nbW, err = evaluate(obs.ContextWithSpan(ctx, sp), st.ev, nb)
			if err != nil {
				sp.End()
				res, ferr, skip := st.stepEvalFailed(ctx, step, err)
				if skip {
					continue
				}
				return res, ferr
			}
			st.evalFails = 0
			st.bounds.observe(nbT, nbW)

			alpha = opt.FixedAlpha
			if alpha < 0 {
				alpha = Alpha(math.Max(st.curT, nbT), material.AmbientC, opt.CriticalC)
			}
			curCost := st.bounds.cost(st.curT, st.curW, alpha)
			nbCost = st.bounds.cost(nbT, nbW, alpha)

			// Eqn. (14): AP = exp((cost_cur - cost_nb) / K).
			ap := math.Exp((curCost - nbCost) / st.k)
			accepted = ap >= 1 || st.rng.Float64() < ap
			if accepted {
				st.cur, st.curT, st.curW = nb, nbT, nbW
				st.res.Accepted++
				if betterCost(st.curT, st.curW, st.bestT, st.bestW, &st.bounds, opt) {
					st.best, st.bestT, st.bestW = st.cur.Clone(), st.curT, st.curW
				}
			}
		}
		sp.End()
		if opt.History {
			st.res.History = append(st.res.History, Sample{
				Step: step, Op: op, TempC: nbT, WirelengthMM: nbW,
				Cost: nbCost, K: st.k, Alpha: alpha, Accepted: accepted,
			})
		}
		st.res.Steps++
		st.recordObsStep(step, alpha, nbT, nbW, nbCost, accepted)

		if opt.ProgressEvery > 0 && (step+1)%opt.ProgressEvery == 0 {
			st.emit(Event{
				Kind: EventStep, Step: st.res.Steps, Alpha: alpha,
				Op: op.String(), Accepted: accepted,
				TempC: nbT, WirelengthMM: nbW, Cost: nbCost,
			})
		}
		if opt.CheckpointEvery > 0 && opt.Checkpoint != nil &&
			(step+1)%opt.CheckpointEvery == 0 && step+1 < opt.Steps {
			if err := st.checkpoint(ctx, step+1, st.src.draws, st.k); err != nil {
				return nil, fmt.Errorf("placer: checkpoint at step %d: %w", step+1, err)
			}
		}
	}

	st.finish(false)
	st.emit(Event{Kind: EventFinal, Step: st.res.Steps})
	return st.res, nil
}

// stepEvalFailed handles an evaluation (or prescreen/audit) failure inside
// the anneal loop: cancellation turns into an interrupt, transient failures
// within Options.EvalFailureBudget consume the step (skip=true tells the loop
// to continue), and anything else aborts the run. Semantics match the
// original inline error path exactly.
func (st *saState) stepEvalFailed(ctx context.Context, step int, err error) (res *Result, ferr error, skip bool) {
	if ctx.Err() != nil {
		res, ferr = st.interrupt(ctx, ctx.Err())
		return res, ferr, false
	}
	if st.opt.EvalFailureBudget > 0 && st.evalFails < st.opt.EvalFailureBudget {
		// Transient failure within budget: skip this step (like a step with
		// no valid perturbation — the step index advances, the
		// completed-steps count does not) and keep annealing.
		st.evalFails++
		st.res.SkippedSteps++
		if ctr := st.counters(); ctr != nil {
			ctr.StepEvalSkipped++
		}
		st.opt.Obs.Add("step_eval_skipped", 1)
		st.emit(Event{Kind: EventStepSkipped, Step: st.res.Steps, Error: err.Error()})
		return nil, nil, true
	}
	return nil, fmt.Errorf("placer: step %d: %w", step, err), false
}

// recordObsStep feeds one completed SA step into the observer's per-run time
// series and refreshes the run's live status (no-op when observability is
// disabled).
func (st *saState) recordObsStep(step int, alpha, nbT, nbW, nbCost float64, accepted bool) {
	o := st.opt.Obs
	if o == nil {
		return
	}
	p := obs.SAPoint{
		Step: step, K: st.k, Alpha: alpha,
		TempC: nbT, WirelengthMM: nbW, Cost: nbCost, Accepted: accepted,
		BestTempC: st.bestT, BestWirelengthMM: st.bestW,
	}
	if st.res.Steps > 0 {
		p.AcceptRate = float64(st.res.Accepted) / float64(st.res.Steps)
	}
	o.RecordSAStep(st.opt.RunIndex, st.opt.Steps, p)
	if mp, ok := st.ev.(MetricsProvider); ok {
		o.SetRunCounters(st.opt.RunIndex, mp.Metrics())
	}
	for _, a := range o.TakeAnomalies(st.opt.RunIndex) {
		st.emit(Event{Kind: EventAnomaly, Step: st.res.Steps, Anomaly: a.Kind, Error: a.Detail})
	}
}

// finish seals the Result from the run state.
func (st *saState) finish(interrupted bool) {
	st.res.Placement = st.best
	st.res.PeakC = st.bestT
	st.res.WirelengthMM = st.bestW
	st.res.Interrupted = interrupted
	if mp, ok := st.ev.(MetricsProvider); ok {
		st.res.Metrics = mp.Metrics()
	}
	if sp, ok := st.ev.(surrogateStatsProvider); ok {
		st.res.Surrogate = sp.SurrogateStats()
	}
	state := "final"
	if interrupted {
		state = "interrupted"
	}
	st.opt.Obs.SetRunState(st.opt.RunIndex, state)
	st.opt.Obs.SetRunCounters(st.opt.RunIndex, st.res.Metrics)
}

// interrupt finalizes a canceled run: it seals the best-so-far Result,
// writes a final checkpoint when a sink is configured (even between periodic
// snapshots — the whole point is not losing the in-flight run), emits an
// EventInterrupted, and returns the Result together with the cancellation
// cause so callers can distinguish interruption from failure.
func (st *saState) interrupt(ctx context.Context, cause error) (*Result, error) {
	if st.opt.Checkpoint != nil {
		if err := st.checkpoint(ctx, st.step, st.drawsAtTop, st.kAtTop); err != nil {
			return nil, errors.Join(fmt.Errorf("placer: checkpoint on interrupt at step %d: %w", st.step, err), cause)
		}
	}
	st.finish(true)
	st.emit(Event{Kind: EventInterrupted, Step: st.res.Steps})
	return st.res, fmt.Errorf("placer: run %d interrupted at step %d/%d: %w",
		st.opt.RunIndex, st.res.Steps, st.opt.Steps, cause)
}

// counters exposes the evaluator's counter instance when it has one.
func (st *saState) counters() *metrics.Counters {
	if cs, ok := st.ev.(counterSource); ok {
		return cs.counters()
	}
	return nil
}

// emit fills the common event fields and hands the event to the sink.
func (st *saState) emit(e Event) {
	if st.opt.Progress == nil {
		return
	}
	e.Run = st.opt.RunIndex
	e.Steps = st.opt.Steps
	e.K = st.k
	e.BestTempC = st.bestT
	e.BestWirelengthMM = st.bestW
	if st.res.Steps > 0 {
		e.AcceptRate = float64(st.res.Accepted) / float64(st.res.Steps)
	}
	if mp, ok := st.ev.(MetricsProvider); ok {
		ctr := mp.Metrics()
		e.Counters = &ctr
	}
	// Lifecycle events (resume, checkpoint, final, interrupted) carry the
	// observability snapshot and surrogate statistics; per-step events stay
	// lean.
	if e.Kind != EventStep {
		e.Obs = st.opt.Obs.EventSnapshot()
		if sp, ok := st.ev.(surrogateStatsProvider); ok {
			e.Surrogate = sp.SurrogateStats()
		}
	}
	st.opt.Progress(e)
}

// checkpoint snapshots the run with nextStep as the resume point and hands it
// to the sink.
func (st *saState) checkpoint(ctx context.Context, nextStep int, draws uint64, k float64) error {
	sp := st.opt.Obs.StartSpanCtx(ctx, obs.PhaseCheckpointWrite, "")
	defer sp.End()
	cp := &Checkpoint{
		Version:             CheckpointVersion,
		Run:                 st.opt.RunIndex,
		Step:                nextStep,
		K:                   k,
		RNGSeed:             st.opt.Seed,
		RNGDraws:            draws,
		Options:             st.opt,
		Cur:                 st.cur.Clone(),
		CurTempC:            st.curT,
		CurWirelengthMM:     st.curW,
		Best:                st.best.Clone(),
		BestTempC:           st.bestT,
		BestWirelengthMM:    st.bestW,
		Initial:             st.res.Initial.Clone(),
		InitialPeakC:        st.res.InitialPeakC,
		InitialWirelengthMM: st.res.InitialWirelength,
		Accepted:            st.res.Accepted,
		CompletedSteps:      st.res.Steps,
		BoundsT:             append([]float64(nil), st.bounds.ts...),
		BoundsW:             append([]float64(nil), st.bounds.ws...),
		BoundsIdx:           st.bounds.idx,
		BoundsSize:          st.bounds.size,
	}
	if st.opt.History {
		cp.History = append([]Sample(nil), st.res.History...)
	}
	if sc, ok := st.ev.(StateCheckpointer); ok {
		state, err := sc.CheckpointState()
		if err != nil {
			return err
		}
		cp.EvalState = state
	}
	if err := st.opt.Checkpoint(cp); err != nil {
		return err
	}
	if ctr := st.counters(); ctr != nil {
		ctr.Checkpoints++
	}
	st.emit(Event{Kind: EventCheckpoint, Step: st.res.Steps})
	return nil
}

// neighbor perturbs cur with one of the paper's operators, returning a valid
// placement. It retries across operators and chiplets before giving up.
func neighbor(sys *chiplet.System, grid *ocm.Grid, cur chiplet.Placement, rng *rand.Rand, opt Options) (chiplet.Placement, Op, bool) {
	jumpW := jumpWeight
	if opt.DisableJump {
		jumpW = 0
	}
	total := moveWeight + rotateWeight + jumpW
	const attempts = 64
	for a := 0; a < attempts; a++ {
		r := rng.Float64() * total
		var op Op
		switch {
		case r < moveWeight:
			op = OpMove
		case r < moveWeight+rotateWeight:
			op = OpRotate
		default:
			op = OpJump
		}
		c := rng.Intn(len(sys.Chiplets))
		switch op {
		case OpMove:
			dir := rng.Intn(4)
			d := []geom.Point{{X: grid.Pitch()}, {X: -grid.Pitch()}, {Y: grid.Pitch()}, {Y: -grid.Pitch()}}[dir]
			target := cur.Centers[c].Add(d)
			if grid.CandidateValid(sys, cur, c, target, cur.Rotated[c]) {
				nb := cur.Clone()
				nb.Centers[c] = target
				return nb, op, true
			}
		case OpRotate:
			if grid.CandidateValid(sys, cur, c, cur.Centers[c], !cur.Rotated[c]) {
				nb := cur.Clone()
				nb.Rotated[c] = !nb.Rotated[c]
				return nb, op, true
			}
		case OpJump:
			if pt, ok := grid.RandomValidPosition(sys, cur, c, rng); ok {
				nb := cur.Clone()
				nb.Centers[c] = pt
				return nb, op, true
			}
		}
	}
	return chiplet.Placement{}, 0, false
}

// leads reports whether run a's result beats run b's under Better, a tie
// going to the lower run index.
func leads(a *Result, ar int, b *Result, br int, criticalC float64) bool {
	if Better(a.PeakC, a.WirelengthMM, b.PeakC, b.WirelengthMM, criticalC) {
		return true
	}
	return ar < br && !Better(b.PeakC, b.WirelengthMM, a.PeakC, a.WirelengthMM, criticalC)
}

// PlaceBestOf runs n independent annealing runs (seeds opt.Seed .. opt.Seed+n-1)
// in parallel, each with its own Evaluator from factory, and returns the best
// solution under Better. This is the paper's protocol of running the
// probabilistic algorithm 5 times and picking the best.
//
// At most GOMAXPROCS runs execute at once, on min(n, GOMAXPROCS) workers
// that take run indices in order: each run holds a full thermal model
// (grid² × layers of solver state), so unbounded fan-out at large n trades
// no extra parallelism for a large peak footprint. Seeds and result slots
// are indexed by run, so results are independent of scheduling order. The
// returned Result's Metrics aggregates the counters of all runs, and its
// Model is the winner's thermal model: of the finished runs only the best
// so far keeps its model, and every other run's model goes back to the idle
// pool (thermal.Model.Release) as soon as it loses, where the next run's
// factory can take it, so at most one model outlives its run.
//
// When some runs fail or are interrupted and others finish, PlaceBestOf
// degrades gracefully to best-of-successful: it returns the best of the
// completed runs together with the first error by run index — both can be
// non-nil — and attaches every failed run's reason to Result.RunFailures.
// Callers that can use a partial answer (a canceled campaign reporting its
// best-so-far) should check the Result before giving up on the error; nil
// Result means no run produced anything.
func PlaceBestOf(sys *chiplet.System, factory func() (Evaluator, error), n int, opt Options) (*Result, error) {
	return PlaceBestOfContext(context.Background(), sys, factory, n, opt)
}

// PlaceBestOfContext is PlaceBestOf with run orchestration (see
// PlaceContext): each run carries its index in Options.RunIndex, so a shared
// Progress sink or Checkpoint store can tell parallel runs apart, and
// Options.Restore is consulted per run index so an interrupted fan-out
// resumes exactly the runs that did not finish.
func PlaceBestOfContext(ctx context.Context, sys *chiplet.System, factory func() (Evaluator, error), n int, opt Options) (*Result, error) {
	if n <= 0 {
		n = 1
	}
	opt = opt.withDefaults()
	results := make([]*Result, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var mu sync.Mutex
	next := 0  // next run index to start
	lead := -1 // best finished run so far
	var leadModel *thermal.Model
	run := func(r int) {
		// Label the run's goroutine for pprof so CPU profiles split by run
		// index (no-op when observability is disabled).
		opt.Obs.Do(ctx, func(ctx context.Context) {
			ev, err := factory()
			if err != nil {
				errs[r] = err
				return
			}
			var model *thermal.Model
			if tm, ok := ev.(interface{ Thermal() *thermal.Model }); ok {
				model = tm.Thermal()
			}
			ro := opt
			ro.Seed = opt.Seed + int64(r)
			ro.RunIndex = r
			res, err := PlaceContext(ctx, sys, ev, ro)
			if err != nil {
				errs[r] = err
			}
			if res != nil {
				res.Run = r
				mu.Lock()
				results[r] = res
				// The winner is the best result under Better, the lowest
				// run index among equals, whatever order the runs finish
				// in. A displaced leader's model is released below.
				if lead < 0 || leads(res, r, results[lead], lead, opt.CriticalC) {
					lead, leadModel, model = r, model, leadModel
				}
				mu.Unlock()
			}
			model.Release()
		}, "tap25d_run", strconv.Itoa(r))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				r := next
				next++
				mu.Unlock()
				if r >= n {
					return
				}
				run(r)
			}
		}()
	}
	wg.Wait()
	var firstErr error
	var merged metrics.Counters
	var mergedSur *SurrogateStats
	var failures []RunFailure
	skipped := 0
	interrupted := false
	for r := 0; r < n; r++ {
		if errs[r] != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("placer: run %d: %w", r, errs[r])
			}
			failures = append(failures, RunFailure{Run: r, Err: errs[r].Error()})
		}
		if results[r] == nil {
			continue
		}
		merged.Merge(results[r].Metrics)
		mergedSur = mergeSurrogateStats(mergedSur, results[r].Surrogate)
		skipped += results[r].SkippedSteps
		interrupted = interrupted || results[r].Interrupted
	}
	if lead < 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, errors.New("placer: no runs executed")
	}
	best := results[lead]
	best.Model = leadModel
	best.Metrics = merged
	best.Surrogate = mergedSur
	best.SkippedSteps = skipped
	best.RunFailures = failures
	best.Interrupted = interrupted
	return best, firstErr
}
