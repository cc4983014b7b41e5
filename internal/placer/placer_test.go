package placer

import (
	"errors"
	"math"
	"sync"
	"testing"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
	"tap25d/internal/thermal"
)

// fakeEval is a synthetic objective: "temperature" falls as the two
// high-power chiplets separate, "wirelength" is the wire-weighted Manhattan
// center distance. It mimics the real trade-off with microsecond evaluations.
type fakeEval struct {
	sys *chiplet.System
	// tempBase and tempSlope control T = tempBase - tempSlope * minHotDist.
	tempBase, tempSlope float64
	calls               int
}

func (f *fakeEval) Evaluate(p chiplet.Placement) (float64, float64, error) {
	f.calls++
	// Min distance between the two highest-power chiplets (zero for
	// single-chiplet systems).
	hot1, hot2 := -1, -1
	for i, c := range f.sys.Chiplets {
		if hot1 < 0 || c.Power > f.sys.Chiplets[hot1].Power {
			hot2 = hot1
			hot1 = i
		} else if hot2 < 0 || c.Power > f.sys.Chiplets[hot2].Power {
			hot2 = i
		}
	}
	d := 0.0
	if hot2 >= 0 {
		d = p.Centers[hot1].Manhattan(p.Centers[hot2])
	}
	t := f.tempBase - f.tempSlope*d
	var wl float64
	for _, ch := range f.sys.Channels {
		wl += float64(ch.Wires) * p.Centers[ch.Src].Manhattan(p.Centers[ch.Dst])
	}
	return t, wl, nil
}

func placerSystem() *chiplet.System {
	return &chiplet.System{
		Name:        "ptest",
		InterposerW: 30,
		InterposerH: 30,
		Chiplets: []chiplet.Chiplet{
			{Name: "HOT0", W: 8, H: 8, Power: 200},
			{Name: "HOT1", W: 8, H: 8, Power: 200},
			{Name: "MEM0", W: 4, H: 4, Power: 5},
			{Name: "MEM1", W: 4, H: 4, Power: 5},
		},
		Channels: []chiplet.Channel{
			{Src: 0, Dst: 1, Wires: 100},
			{Src: 0, Dst: 2, Wires: 50},
			{Src: 1, Dst: 3, Wires: 50},
		},
	}
}

func TestAlphaEqn13(t *testing.T) {
	cases := []struct {
		temp, want float64
	}{
		{84, 0},
		{85, 0},    // at the threshold: pure wirelength
		{86, 0.51}, // 0.1 + (86-45)/100
		{100, 0.65},
		{125, 0.9},
		{200, 0.9}, // capped
	}
	for _, c := range cases {
		if got := Alpha(c.temp, 45, 85); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Alpha(%v) = %v, want %v", c.temp, got, c.want)
		}
	}
}

func TestBetter(t *testing.T) {
	const crit = 85
	cases := []struct {
		aT, aW, bT, bW float64
		want           bool
	}{
		{80, 100, 90, 50, true},   // feasible beats infeasible
		{90, 50, 80, 100, false},  // infeasible loses
		{80, 100, 80, 200, true},  // both feasible: lower WL
		{80, 200, 80, 100, false}, // both feasible: higher WL loses
		{95, 100, 100, 50, true},  // both infeasible: lower T
		{95, 100, 95, 50, false},  // tie on T: lower WL wins
	}
	for i, c := range cases {
		if got := Better(c.aT, c.aW, c.bT, c.bW, crit); got != c.want {
			t.Errorf("case %d: Better = %v, want %v", i, got, c.want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpMove.String() != "move" || OpRotate.String() != "rotate" || OpJump.String() != "jump" {
		t.Error("op strings wrong")
	}
	if Op(9).String() == "" {
		t.Error("unknown op should format")
	}
}

func TestPlaceLowersTemperatureWhenHot(t *testing.T) {
	sys := placerSystem()
	// tempBase 130: compact initial placements run far above 85 C, so the
	// annealer must spread the hot pair.
	ev := &fakeEval{sys: sys, tempBase: 130, tempSlope: 2}
	res, err := Place(sys, ev, Options{Steps: 800, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(res.Placement); err != nil {
		t.Fatalf("final placement invalid: %v", err)
	}
	if res.PeakC >= res.InitialPeakC {
		t.Errorf("peak %v did not improve on initial %v", res.PeakC, res.InitialPeakC)
	}
	// The hot pair must have been separated substantially.
	d0 := res.Initial.Centers[0].Manhattan(res.Initial.Centers[1])
	d1 := res.Placement.Centers[0].Manhattan(res.Placement.Centers[1])
	if d1 <= d0 {
		t.Errorf("hot-pair distance %v did not grow from %v", d1, d0)
	}
}

func TestPlaceMinimizesWirelengthWhenCool(t *testing.T) {
	sys := placerSystem()
	// Always far below critical: alpha = 0, pure wirelength minimization;
	// the compact initial placement should stay (or improve slightly).
	ev := &fakeEval{sys: sys, tempBase: 60, tempSlope: 0.5}
	res, err := Place(sys, ev, Options{Steps: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.WirelengthMM > res.InitialWirelength*1.05 {
		t.Errorf("wirelength %v regressed vs initial %v", res.WirelengthMM, res.InitialWirelength)
	}
}

func TestPlaceDeterministic(t *testing.T) {
	sys := placerSystem()
	mk := func() (*Result, error) {
		return Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, Options{Steps: 300, Seed: 5})
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Placement.Centers {
		if a.Placement.Centers[i] != b.Placement.Centers[i] {
			t.Fatalf("same seed, different placements at %d", i)
		}
	}
	if a.PeakC != b.PeakC || a.WirelengthMM != b.WirelengthMM {
		t.Error("same seed, different metrics")
	}
}

func TestPlaceHistory(t *testing.T) {
	sys := placerSystem()
	res, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2},
		Options{Steps: 200, Seed: 3, History: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 || len(res.History) > 200 {
		t.Fatalf("history length %d", len(res.History))
	}
	sawAccept := false
	for _, s := range res.History {
		if s.K > 1 || s.K < 0.01-1e-12 {
			t.Errorf("K out of schedule: %v", s.K)
		}
		if s.Alpha < 0 || s.Alpha > 0.9 {
			t.Errorf("alpha out of range: %v", s.Alpha)
		}
		if s.Accepted {
			sawAccept = true
		}
	}
	if !sawAccept {
		t.Error("no accepted steps recorded")
	}
	if res.Accepted == 0 {
		t.Error("Accepted counter zero")
	}
}

func TestPlaceDisableJump(t *testing.T) {
	sys := placerSystem()
	res, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2},
		Options{Steps: 300, Seed: 4, History: true, DisableJump: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.History {
		if s.Op == OpJump {
			t.Fatal("jump operator used despite DisableJump")
		}
	}
}

func TestPlaceFixedAlpha(t *testing.T) {
	sys := placerSystem()
	res, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2},
		Options{Steps: 200, Seed: 4, History: true, FixedAlpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.History {
		if s.Alpha != 0.5 {
			t.Fatalf("alpha = %v, want fixed 0.5", s.Alpha)
		}
	}
}

func TestPlaceKeepsAllPlacementsValid(t *testing.T) {
	sys := placerSystem()
	ev := &validatingEval{sys: sys, inner: &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}}
	if _, err := Place(sys, ev, Options{Steps: 400, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	if ev.violations > 0 {
		t.Errorf("%d invalid placements reached the evaluator", ev.violations)
	}
}

type validatingEval struct {
	sys        *chiplet.System
	inner      Evaluator
	violations int
}

func (v *validatingEval) Evaluate(p chiplet.Placement) (float64, float64, error) {
	if err := v.sys.CheckPlacement(p); err != nil {
		v.violations++
	}
	return v.inner.Evaluate(p)
}

func TestPlaceInitialProvided(t *testing.T) {
	sys := placerSystem()
	init := chiplet.NewPlacement(4)
	init.Centers[0] = geom.Point{X: 5, Y: 5}
	init.Centers[1] = geom.Point{X: 25, Y: 25}
	init.Centers[2] = geom.Point{X: 5, Y: 25}
	init.Centers[3] = geom.Point{X: 25, Y: 5}
	res, err := Place(sys, &fakeEval{sys: sys, tempBase: 60, tempSlope: 0},
		Options{Steps: 50, Seed: 1, Initial: &init})
	if err != nil {
		t.Fatal(err)
	}
	for i := range init.Centers {
		if res.Initial.Centers[i] != init.Centers[i] {
			t.Errorf("initial placement not honored at %d", i)
		}
	}
}

func TestPlaceEvaluatorErrorPropagates(t *testing.T) {
	sys := placerSystem()
	ev := &failingEval{}
	if _, err := Place(sys, ev, Options{Steps: 10, Seed: 1}); err == nil {
		t.Error("evaluator error swallowed")
	}
}

type failingEval struct{}

func (f *failingEval) Evaluate(chiplet.Placement) (float64, float64, error) {
	return 0, 0, errors.New("boom")
}

func TestPlaceBestOf(t *testing.T) {
	sys := placerSystem()
	factory := func() (Evaluator, error) {
		return &fakeEval{sys: sys, tempBase: 130, tempSlope: 2}, nil
	}
	best, err := PlaceBestOf(sys, factory, 4, Options{Steps: 300, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Re-run the winning seed individually: it must reproduce the result.
	solo, err := Place(sys, &fakeEval{sys: sys, tempBase: 130, tempSlope: 2},
		Options{Steps: 300, Seed: 100 + int64(best.Run)})
	if err != nil {
		t.Fatal(err)
	}
	if solo.PeakC != best.PeakC || solo.WirelengthMM != best.WirelengthMM {
		t.Errorf("best-of result (%v, %v) does not match solo rerun (%v, %v)",
			best.PeakC, best.WirelengthMM, solo.PeakC, solo.WirelengthMM)
	}
	// And every other run must not beat it.
	for r := 0; r < 4; r++ {
		res, err := Place(sys, &fakeEval{sys: sys, tempBase: 130, tempSlope: 2},
			Options{Steps: 300, Seed: 100 + int64(r)})
		if err != nil {
			t.Fatal(err)
		}
		if Better(res.PeakC, res.WirelengthMM, best.PeakC, best.WirelengthMM, 85) {
			t.Errorf("run %d beats the reported best", r)
		}
	}
}

// countedEval wraps fakeEval with unsynchronized per-run counters, exactly
// like the real SystemEvaluator's. The safety contract is structural: each
// run owns its evaluator, and PlaceBestOf merges counters only after the run
// goroutines are joined.
type countedEval struct {
	fakeEval
	ctr metrics.Counters
}

func (c *countedEval) Evaluate(p chiplet.Placement) (float64, float64, error) {
	c.ctr.Evaluations++
	return c.fakeEval.Evaluate(p)
}

func (c *countedEval) Metrics() metrics.Counters { return c.ctr }

// modelEval is a fakeEval that exposes a thermal model of its own, as
// SystemEvaluator does.
type modelEval struct {
	fakeEval
	model *thermal.Model
}

func (m *modelEval) Thermal() *thermal.Model { return m.model }

// TestPlaceBestOfKeepsWinnerModel: with more runs than workers, the Result
// carries the thermal model of the run that won, whichever worker ran it
// and whenever it finished; a fan-out whose evaluators expose no model
// carries none.
func TestPlaceBestOfKeepsWinnerModel(t *testing.T) {
	sys := placerSystem()
	var mu sync.Mutex
	var evs []*modelEval
	factory := func() (Evaluator, error) {
		m, err := thermal.NewModel(sys.InterposerW, sys.InterposerH, thermal.Options{Grid: 4})
		if err != nil {
			return nil, err
		}
		mu.Lock()
		defer mu.Unlock()
		// Every evaluator scores a constant infeasible temperature, so
		// Better ranks runs by it: the third evaluator built wins, whichever
		// run index it serves.
		base := 130.0
		if len(evs) == 2 {
			base = 110
		}
		ev := &modelEval{fakeEval: fakeEval{sys: sys, tempBase: base}, model: m}
		evs = append(evs, ev)
		return ev, nil
	}
	best, err := PlaceBestOf(sys, factory, 6, Options{Steps: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if best.PeakC != 110 || best.Model == nil || best.Model != evs[2].model {
		t.Errorf("best run %d at %v C carries model %p, want the 110 C evaluator's %p",
			best.Run, best.PeakC, best.Model, evs[2].model)
	}

	plain, err := PlaceBestOf(sys, func() (Evaluator, error) {
		return &fakeEval{sys: sys, tempBase: 130, tempSlope: 2}, nil
	}, 3, Options{Steps: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Model != nil {
		t.Errorf("fan-out without thermal models carries model %p", plain.Model)
	}
}

// TestPlaceBestOfCounterMergeRaceSafe is a -race regression test for the
// counter aggregation in PlaceBestOfContext: merging per-run counters while a
// run goroutine still writes them (or sharing one Counters instance across
// runs) trips the race detector here, and a lost update shows up as a sum
// mismatch. An Observer is attached so the per-step SetRunCounters path runs
// concurrently with the merge as it does in production.
func TestPlaceBestOfCounterMergeRaceSafe(t *testing.T) {
	sys := placerSystem()
	var mu sync.Mutex
	var evs []*countedEval
	factory := func() (Evaluator, error) {
		ev := &countedEval{fakeEval: fakeEval{sys: sys, tempBase: 130, tempSlope: 2}}
		mu.Lock()
		evs = append(evs, ev)
		mu.Unlock()
		return ev, nil
	}
	o := obs.New()
	const runs = 8
	best, err := PlaceBestOf(sys, factory, runs, Options{Steps: 200, Seed: 7, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(evs) != runs {
		t.Fatalf("factory built %d evaluators, want %d", len(evs), runs)
	}
	var want int64
	for _, ev := range evs {
		want += ev.ctr.Evaluations
	}
	// Each run evaluates the initial placement once plus at most one
	// neighbor per step, so the total is bounded and non-trivial.
	if want <= runs || want > runs*201 {
		t.Fatalf("implausible total evaluations %d for %d runs of 200 steps", want, runs)
	}
	if best.Metrics.Evaluations != want {
		t.Fatalf("merged Evaluations = %d, want sum of per-run counters %d",
			best.Metrics.Evaluations, want)
	}
	// The observer absorbed each run's final counters; its report must agree.
	if rep := o.Report(); rep.Counters.Evaluations != want {
		t.Fatalf("observer report Evaluations = %d, want %d", rep.Counters.Evaluations, want)
	}
}

func TestPlaceBestOfFactoryError(t *testing.T) {
	sys := placerSystem()
	factory := func() (Evaluator, error) { return nil, errors.New("no evaluator") }
	if _, err := PlaceBestOf(sys, factory, 2, Options{Steps: 10}); err == nil {
		t.Error("factory error swallowed")
	}
}

func TestNormBounds(t *testing.T) {
	n := newNormBounds(3)
	// Empty and degenerate windows: cost must be 0, not NaN.
	if c := n.cost(90, 100, 0.5); c != 0 {
		t.Errorf("empty-window cost = %v", c)
	}
	n.observe(90, 100)
	if c := n.cost(90, 100, 0.5); c != 0 {
		t.Errorf("degenerate cost = %v", c)
	}
	n.observe(110, 200)
	n.observe(80, 50)
	tMin, tMax, wMin, wMax := n.ranges()
	if tMin != 80 || tMax != 110 || wMin != 50 || wMax != 200 {
		t.Fatalf("bounds wrong: %v %v %v %v", tMin, tMax, wMin, wMax)
	}
	// Midpoint temperatures and wirelengths normalize into (0, 1).
	c := n.cost(95, 125, 0.5)
	if c <= 0 || c >= 1 {
		t.Errorf("cost = %v, want in (0,1)", c)
	}
	// alpha=1: only temperature matters.
	if got := n.cost(110, 50, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("temp-only cost = %v, want 1", got)
	}
	// The window slides: after 3 more observations the old extremes fall
	// out and the bounds tighten.
	n.observe(100, 120)
	n.observe(101, 121)
	n.observe(102, 122)
	tMin, tMax, wMin, wMax = n.ranges()
	if tMin != 100 || tMax != 102 || wMin != 120 || wMax != 122 {
		t.Errorf("window did not slide: %v %v %v %v", tMin, tMax, wMin, wMax)
	}
	// Out-of-window values extrapolate monotonically.
	if !(n.cost(110, 121, 1) > n.cost(102, 121, 1)) {
		t.Error("extrapolation not monotone")
	}
	if n.cost(90, 121, 1) >= 0 {
		t.Error("below-window temperature should extrapolate negative")
	}
}

// TestSlidingTileJumpAblation demonstrates the Section III-C3 motivation for
// the jump operator: with a crowded interposer and no jump, the annealer
// separates the hot pair less effectively than with jumps enabled.
func TestSlidingTileJumpAblation(t *testing.T) {
	sys := &chiplet.System{
		Name:        "crowded",
		InterposerW: 22,
		InterposerH: 22,
		Chiplets: []chiplet.Chiplet{
			{Name: "H0", W: 9, H: 9, Power: 200},
			{Name: "H1", W: 9, H: 9, Power: 200},
			{Name: "M0", W: 9, H: 9, Power: 5},
			{Name: "M1", W: 9, H: 9, Power: 5},
		},
		Channels: []chiplet.Channel{{Src: 0, Dst: 1, Wires: 64}},
	}
	dist := func(disableJump bool) float64 {
		var total float64
		for seed := int64(0); seed < 3; seed++ {
			ev := &fakeEval{sys: sys, tempBase: 140, tempSlope: 3}
			res, err := Place(sys, ev, Options{Steps: 400, Seed: seed, DisableJump: disableJump})
			if err != nil {
				t.Fatal(err)
			}
			total += res.Placement.Centers[0].Manhattan(res.Placement.Centers[1])
		}
		return total / 3
	}
	withJump := dist(false)
	withoutJump := dist(true)
	if withJump < withoutJump {
		t.Logf("note: jump (%v) did not separate farther than no-jump (%v) on this toy case", withJump, withoutJump)
	}
	// At minimum, jump must not be catastrophically worse.
	if withJump+4 < withoutJump {
		t.Errorf("jump separation %v much worse than without (%v)", withJump, withoutJump)
	}
}
