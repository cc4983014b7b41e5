package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tap25d"
	"tap25d/internal/chiplet"
	"tap25d/internal/material"
	"tap25d/internal/obs"
	"tap25d/internal/placer"
	"tap25d/internal/route"
	"tap25d/internal/surrogate"
	"tap25d/internal/thermal"
)

// runSpan times one annealing run from outside the placer. The evaluator
// factory call opens it and every call the placer makes into the evaluator
// extends it, so [start, last] covers the run.
type runSpan struct {
	start, built, firstCall, last time.Time
	// eval sums the evaluator calls; ckptState the CheckpointState calls.
	eval, ckptState time.Duration
}

func (r *runSpan) enter() time.Time {
	now := time.Now()
	if r.firstCall.IsZero() {
		r.firstCall = now
	}
	return now
}

func (r *runSpan) exit(t0 time.Time, acc *time.Duration) {
	now := time.Now()
	*acc += now.Sub(t0)
	r.last = now
}

// exactEvaluator is what the placer probes a production evaluator for.
type exactEvaluator interface {
	placer.ContextEvaluator
	placer.StateCheckpointer
	placer.MetricsProvider
}

// timedEval forwards every interface the placer probes a SystemEvaluator for
// and times each call. It changes no argument and no result, so a traced run
// reproduces the untraced one bit for bit.
type timedEval struct {
	inner exactEvaluator
	span  *runSpan
}

func (e *timedEval) Evaluate(p chiplet.Placement) (float64, float64, error) {
	return e.EvaluateContext(context.Background(), p)
}

func (e *timedEval) EvaluateContext(ctx context.Context, p chiplet.Placement) (float64, float64, error) {
	defer e.span.exit(e.span.enter(), &e.span.eval)
	return e.inner.EvaluateContext(ctx, p)
}

func (e *timedEval) CheckpointState() ([]byte, error) {
	defer e.span.exit(e.span.enter(), &e.span.ckptState)
	return e.inner.CheckpointState()
}

func (e *timedEval) RestoreState(state []byte) error {
	defer e.span.exit(e.span.enter(), &e.span.eval)
	return e.inner.RestoreState(state)
}

func (e *timedEval) Metrics() tap25d.EvalCounters {
	defer e.span.exit(e.span.enter(), &e.span.eval)
	return e.inner.Metrics()
}

// timedSurrogate adds the two-fidelity hooks of a SurrogateEvaluator. Only
// surrogate runs get this type: the placer switches to prescreening whenever
// the evaluator has a Prescreen method.
type timedSurrogate struct {
	timedEval
	sur *placer.SurrogateEvaluator
}

func (e *timedSurrogate) Prescreen(ctx context.Context, cur, nb chiplet.Placement, curTempC float64) (float64, float64, bool, error) {
	defer e.span.exit(e.span.enter(), &e.span.eval)
	return e.sur.Prescreen(ctx, cur, nb, curTempC)
}

func (e *timedSurrogate) PrescreenPolicy() (float64, float64) {
	defer e.span.exit(e.span.enter(), &e.span.eval)
	return e.sur.PrescreenPolicy()
}

func (e *timedSurrogate) MaybeAudit(ctx context.Context, p chiplet.Placement, predTempC float64) error {
	defer e.span.exit(e.span.enter(), &e.span.eval)
	return e.sur.MaybeAudit(ctx, p, predTempC)
}

func (e *timedSurrogate) SurrogateStats() *placer.SurrogateStats {
	defer e.span.exit(e.span.enter(), &e.span.eval)
	return e.sur.SurrogateStats()
}

// phaseTotals are the Observer's accumulated phase durations.
type phaseTotals struct {
	solve, assemble, route, surrogate, ckpt, execute time.Duration
	ckpts                                            uint64
}

func phaseTotalsOf(o *obs.Observer) phaseTotals {
	total := func(p obs.Phase) time.Duration { return time.Duration(o.PhaseHistogram(p).Snapshot().Sum) }
	return phaseTotals{
		solve:     total(obs.PhaseThermalSolve),
		assemble:  total(obs.PhaseThermalAssemble),
		route:     total(obs.PhaseRouteSolve),
		surrogate: total(obs.PhaseSurrogateEval),
		ckpt:      total(obs.PhaseCheckpointWrite),
		execute:   total(obs.PhaseJobExecute),
		ckpts:     o.PhaseHistogram(obs.PhaseCheckpointWrite).Snapshot().Count,
	}
}

func (a phaseTotals) sub(b phaseTotals) phaseTotals {
	return phaseTotals{
		solve: a.solve - b.solve, assemble: a.assemble - b.assemble, route: a.route - b.route,
		surrogate: a.surrogate - b.surrogate, ckpt: a.ckpt - b.ckpt, execute: a.execute - b.execute,
		ckpts: a.ckpts - b.ckpts,
	}
}

// tracedFlowRun is one flow rebuilt from the public parts of tap25d.Place:
// placer.PlaceBestOfContext over timed evaluators, then tap25d.Evaluate of
// the best placement, then the corner screen.
type tracedFlowRun struct {
	best   *placer.Result
	final  *tap25d.Result
	peaks  []float64
	runs   []obs.RunStatus
	spans  []*runSpan
	store  time.Duration // checkpoint store writes
	stores int64
	// Walls of the three calls, and the Observer's phase totals over each.
	placeWall, finalWall, cornersWall time.Duration
	inPlace, inFinal, inCorners       phaseTotals
}

// tracedFlow runs flow seed with an Observer attached and every evaluator and
// checkpoint call timed. It builds the evaluators exactly as tap25d.Place
// does.
func (f flowSpec) tracedFlow(sys *tap25d.System, seed int64, dir string) (*tracedFlowRun, error) {
	o := tap25d.NewObserver()
	tr := &tracedFlowRun{}
	var mu sync.Mutex
	factory := func() (placer.Evaluator, error) {
		sp := &runSpan{start: time.Now()}
		stack := material.DefaultStackFor(sys.InterposerW, sys.InterposerH)
		ev, err := placer.NewSystemEvaluator(sys,
			thermal.Options{Grid: f.grid, Stack: &stack, Obs: o}, route.Options{Obs: o})
		if err != nil {
			return nil, err
		}
		var out placer.Evaluator = &timedEval{inner: ev, span: sp}
		if f.surrogate {
			sur := placer.NewSurrogateEvaluator(ev, surrogate.Config{}, o)
			out = &timedSurrogate{timedEval: timedEval{inner: sur, span: sp}, sur: sur}
		}
		sp.built = time.Now()
		mu.Lock()
		tr.spans = append(tr.spans, sp)
		mu.Unlock()
		return out, nil
	}
	popt := placer.Options{Steps: f.steps, Seed: seed, Obs: o}
	var storeNS, stores atomic.Int64
	if f.ckptEvery > 0 {
		ckdir := filepath.Join(dir, fmt.Sprintf("ckpt-traced-%d", seed))
		defer os.RemoveAll(ckdir)
		store := &tap25d.CheckpointStore{Dir: ckdir}
		popt.CheckpointEvery = f.ckptEvery
		popt.Checkpoint = func(cp *placer.Checkpoint) error {
			t0 := time.Now()
			err := store.Checkpoint(cp)
			storeNS.Add(int64(time.Since(t0)))
			stores.Add(1)
			return err
		}
	}

	runtime.GC() // as before the untraced flow's Place
	p0 := phaseTotalsOf(o)
	t0 := time.Now()
	best, err := placer.PlaceBestOfContext(context.Background(), sys, factory, f.runs, popt)
	tr.placeWall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("traced place: %w", err)
	}
	p1 := phaseTotalsOf(o)
	t1 := time.Now()
	final, err := tap25d.Evaluate(sys, best.Placement, tap25d.Options{ThermalGrid: f.grid, Observer: o})
	tr.finalWall = time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("traced evaluate: %w", err)
	}
	p2 := phaseTotalsOf(o)
	peaks, corners, err := f.screen(sys, final.Placement, o)
	if err != nil {
		return nil, err
	}
	p3 := phaseTotalsOf(o)

	tr.best, tr.final, tr.peaks, tr.cornersWall = best, final, peaks, corners
	tr.runs = o.RunStatuses()
	tr.store, tr.stores = time.Duration(storeNS.Load()), stores.Load()
	tr.inPlace, tr.inFinal, tr.inCorners = p1.sub(p0), p2.sub(p1), p3.sub(p2)
	return tr, nil
}

// sameOutcome checks that tracing changed nothing: the traced flow must
// reproduce the untraced flow's placement, metrics, corner peaks, surrogate
// statistics and solver counters exactly. A wrapper that dropped a forwarded
// interface would switch the surrogate off or change the warm starts, and
// fail here.
func sameOutcome(fr *flowRun, tr *tracedFlowRun) error {
	u := fr.res
	if !reflect.DeepEqual(u.Placement, tr.best.Placement) || !reflect.DeepEqual(u.Placement, tr.final.Placement) {
		return errors.New("traced placement differs from the untraced one")
	}
	if u.PeakC != tr.final.PeakC || u.WirelengthMM != tr.final.WirelengthMM {
		return fmt.Errorf("traced flow gives %v C / %v mm, untraced %v C / %v mm",
			tr.final.PeakC, tr.final.WirelengthMM, u.PeakC, u.WirelengthMM)
	}
	if !reflect.DeepEqual(fr.peaks, tr.peaks) {
		return fmt.Errorf("traced corner peaks %v differ from untraced %v", tr.peaks, fr.peaks)
	}
	if !reflect.DeepEqual(u.Surrogate, tr.best.Surrogate) {
		return fmt.Errorf("traced surrogate stats %+v differ from untraced %+v", tr.best.Surrogate, u.Surrogate)
	}
	// The placer counts checkpoints through an unexported hook no wrapper
	// outside its package can forward; every other counter must agree.
	want, got := u.Metrics, tr.best.Metrics
	got.Merge(tr.final.Metrics)
	want.Checkpoints, got.Checkpoints = 0, 0
	if want != got {
		return fmt.Errorf("traced counters differ:\n  traced   %v\n  untraced %v", got, want)
	}
	return nil
}

// breakdown accumulates the per-layer self-times of traced flows. Parallel
// runs each contribute their own time, so the denominator (busy) is the sum
// of the run spans plus the serial calls around them.
type breakdown struct {
	flows int

	placer, compact, checkpoint, surrogate time.Duration
	solve, assemble, route                 time.Duration
	finalize, scenarios                    time.Duration
	// solveCG is the thermal solve self-time of the counted solves (the
	// batched corner screen keeps no CG counters).
	solveCG time.Duration
	// fanout is time inside placer.PlaceBestOfContext outside every run
	// span: goroutine start, the semaphore and the best-of merge.
	fanout time.Duration
	busy   time.Duration

	traced, untraced time.Duration

	ctr                  tap25d.EvalCounters
	checkpoints          int64
	steps                int
	accepted             float64
	driftSq, driftAudits float64
	wirelengths          []float64
}

func (b *breakdown) addFlow(f flowSpec, fr *flowRun, tr *tracedFlowRun) {
	b.flows++
	var sumRun, sumBuild, sumCompact, sumEval, sumState, maxRun time.Duration
	for _, sp := range tr.spans {
		r := sp.last.Sub(sp.start)
		sumRun += r
		if r > maxRun {
			maxRun = r
		}
		sumBuild += sp.built.Sub(sp.start)
		sumCompact += sp.firstCall.Sub(sp.built)
		sumEval += sp.eval
		sumState += sp.ckptState
	}
	P, F, S := tr.inPlace, tr.inFinal, tr.inCorners
	// Evaluator time not spent in the thermal solver or the router is the
	// surrogate's (fit, predict) on a two-fidelity run, and the evaluator's
	// glue (source lists, counters) on an exact one.
	residual := sumEval - P.solve - P.route
	if f.surrogate {
		b.surrogate += residual
	} else {
		b.placer += residual
	}
	b.placer += sumRun - sumBuild - sumCompact - sumEval - sumState - tr.store
	b.compact += sumCompact
	b.checkpoint += sumState + tr.store
	b.checkpoints += tr.stores
	// Model construction in the evaluator factory counts as assembly.
	b.assemble += P.assemble + F.assemble + S.assemble + sumBuild
	b.solve += P.solve - P.assemble + F.solve - F.assemble + S.solve - S.assemble
	b.solveCG += P.solve - P.assemble + F.solve - F.assemble
	b.route += P.route + F.route
	b.finalize += tr.finalWall - F.solve - F.route
	b.scenarios += tr.cornersWall - S.solve
	fanout := tr.placeWall - maxRun
	b.fanout += fanout
	b.busy += sumRun + fanout + tr.finalWall + tr.cornersWall
	b.traced += tr.placeWall + tr.finalWall + tr.cornersWall
	b.untraced += fr.place + fr.corners

	b.wirelengths = append(b.wirelengths, tr.final.WirelengthMM)
	c := tr.best.Metrics
	c.Merge(tr.final.Metrics)
	b.ctr.Merge(c)
	for _, rs := range tr.runs {
		b.steps += rs.Step
		b.accepted += rs.AcceptRate * float64(rs.Step)
	}
	if s := tr.best.Surrogate; s != nil {
		b.driftSq += s.DriftRMSC * s.DriftRMSC * float64(s.Audits)
		b.driftAudits += float64(s.Audits)
	}
}

// metrics renders the breakdown; every perLayer metric is present.
func (b *breakdown) metrics(t *tally) metrics {
	l := newLayerMetrics()
	l.put("placer.self_ms", millis(b.placer))
	l.put("placer.steps", float64(b.steps))
	l.put("placer.accept_rate", ratio(b.accepted, float64(b.steps)))
	l.put("placer.compact_ms", millis(b.compact))
	l.put("placer.checkpoint_ms", millis(b.checkpoint))
	l.put("placer.checkpoints", float64(b.checkpoints))
	l.put("placer.wirelength_mm", median(b.wirelengths))
	l.put("surrogate.self_ms", millis(b.surrogate))
	putCounters(l, b.ctr)
	l.put("surrogate.drift_rms_c", math.Sqrt(ratio(b.driftSq, b.driftAudits)))
	l.put("thermal.solve_ms", millis(b.solve))
	l.put("thermal.assemble_ms", millis(b.assemble))
	l.put("sparse.cg_ms_per_iter", ratio(millis(b.solveCG), float64(b.ctr.CGIterations)))
	l.put("route.self_ms", millis(b.route))
	l.put("tap25d.finalize_ms", millis(b.finalize))
	l.put("tap25d.scenarios_ms", millis(b.scenarios))

	covered := b.placer + b.compact + b.checkpoint + b.surrogate + b.solve + b.assemble +
		b.route + b.finalize + b.scenarios
	l.put("trace.coverage", ratio(float64(covered), float64(b.busy)))
	l.put("trace.uncovered_ms", millis(b.busy-covered))
	l.put("trace.overhead_pct", 100*ratio(float64(b.traced-b.untraced), float64(b.untraced)))
	l.put("failed_frac", t.failedFrac())
	fmt.Printf("uncovered: placebestof_fanout %.3f ms (goroutine start, run semaphore, best-of merge)\n",
		millis(b.fanout))
	return l.m
}

// putCounters sets the per-layer counts that come straight from evaluation
// counters.
func putCounters(l layerMetrics, c tap25d.EvalCounters) {
	l.put("surrogate.prescreens", float64(c.SurrogatePrescreens))
	l.put("surrogate.rejects", float64(c.SurrogateRejects))
	l.put("surrogate.hit_rate", ratio(float64(c.SurrogateRejects), float64(c.SurrogatePrescreens)))
	l.put("surrogate.audits", float64(c.SurrogateAudits))
	l.put("surrogate.refits", float64(c.SurrogateRefits))
	l.put("thermal.solves", float64(c.ThermalSolves))
	l.put("thermal.assembles_full", float64(c.FullAssembles))
	l.put("thermal.assembles_delta", float64(c.DeltaAssembles))
	l.put("thermal.assembles_skip", float64(c.SkippedAssembles))
	l.put("sparse.cg_iters", float64(c.CGIterations))
	l.put("sparse.cg_iters_per_solve", ratio(float64(c.CGIterations), float64(c.ThermalSolves)))
	l.put("sparse.mg_cycles", float64(c.MGCycles))
	l.put("sparse.mg_setups", float64(c.MGSetups))
	l.put("sparse.mg_setups_per_solve", ratio(float64(c.MGSetups), float64(c.ThermalSolves)))
	l.put("sparse.cg_retries", float64(c.CGRetries))
	l.put("route.calls", float64(c.RouteCalls))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
