package placer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"tap25d/internal/chiplet"
	"tap25d/internal/route"
	"tap25d/internal/thermal"
)

// TestCountingSourceTransparent proves the wrapper does not change the value
// stream: rand.Rand over a countingSource must emit exactly what it emits
// over the raw source, and skip(n) must reconstruct the generator state.
func TestCountingSourceTransparent(t *testing.T) {
	const seed = 7
	a := rand.New(rand.NewSource(seed))
	src := newCountingSource(seed)
	b := rand.New(src)
	for i := 0; i < 500; i++ {
		switch i % 3 {
		case 0:
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("draw %d: Float64 %v != %v", i, y, x)
			}
		case 1:
			if x, y := a.Intn(97), b.Intn(97); x != y {
				t.Fatalf("draw %d: Intn %v != %v", i, y, x)
			}
		case 2:
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("draw %d: Int63 %v != %v", i, y, x)
			}
		}
	}

	// Replay: a fresh source skipped to the recorded draw count must continue
	// with the same values.
	replay := rand.New(func() *countingSource {
		s := newCountingSource(seed)
		s.skip(src.draws)
		return s
	}())
	for i := 0; i < 200; i++ {
		if x, y := b.Float64(), replay.Float64(); x != y {
			t.Fatalf("replayed draw %d: %v != %v", i, y, x)
		}
	}
}

// interruptAfter cancels ctx once n step events have been observed and
// returns the cancelable context plus the hook to install as
// Options.Progress.
func interruptAfter(n int) (context.Context, EventFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	steps := 0
	return ctx, func(e Event) {
		if e.Kind != EventStep {
			return
		}
		steps++
		if steps == n {
			cancel()
		}
	}
}

// TestCheckpointKillResumeBitCompatible is the core resilience contract: a
// run interrupted mid-anneal and resumed from its checkpoint must finish with
// exactly the same placement and metrics as the same seed run uninterrupted.
func TestCheckpointKillResumeBitCompatible(t *testing.T) {
	sys := placerSystem()
	opt := Options{Steps: 400, Seed: 11}
	baseline, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" the run after 150 steps; the interrupt path writes a final
	// checkpoint even though no periodic cadence was configured.
	var cp *Checkpoint
	ctx, progress := interruptAfter(150)
	iopt := opt
	iopt.Progress = progress
	iopt.ProgressEvery = 1
	iopt.Checkpoint = func(c *Checkpoint) error { cp = c; return nil }
	partial, err := PlaceContext(ctx, sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, iopt)
	if err == nil {
		t.Fatal("interrupted run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if partial == nil || !partial.Interrupted {
		t.Fatalf("interrupted run did not return a best-so-far result: %+v", partial)
	}
	if partial.Steps >= opt.Steps {
		t.Fatalf("interrupted run completed %d steps of %d", partial.Steps, opt.Steps)
	}
	if cp == nil {
		t.Fatal("no checkpoint written on interrupt")
	}
	if err := cp.Validate(sys); err != nil {
		t.Fatalf("interrupt checkpoint invalid: %v", err)
	}

	resumed, err := Resume(context.Background(), sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, cp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, baseline, resumed)
}

// legacyOptionKeys are the options keys that checkpoints carried while the
// annealing schedule, the Eqn. (13) ambient, the OCM pitch and the operator
// mix were settable, each at the only value any run ever used.
const legacyOptionKeys = `{"KStart":1,"KEnd":0.01,"KDecay":0.95,"AmbientC":45,"GridPitch":1,` +
	`"MoveWeight":0.5,"RotateWeight":0.25,"JumpWeight":0.25}`

// TestLegacyCheckpointOptionsResume: a sealed checkpoint whose options still
// carry the legacy keys decodes and resumes bit-identically to an
// uninterrupted run at the same seed.
func TestLegacyCheckpointOptionsResume(t *testing.T) {
	sys := placerSystem()
	opt := Options{Steps: 400, Seed: 11}
	baseline, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}

	var cp *Checkpoint
	ctx, progress := interruptAfter(150)
	iopt := opt
	iopt.Progress = progress
	iopt.ProgressEvery = 1
	iopt.Checkpoint = func(c *Checkpoint) error { cp = c; return nil }
	if _, err := PlaceContext(ctx, sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, iopt); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if cp == nil {
		t.Fatal("no checkpoint written on interrupt")
	}

	// Splice the legacy keys into the snapshot's options object and seal the
	// payload the way SaveCheckpointFile does.
	raw, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var doc, options map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc["options"], &options); err != nil {
		t.Fatal(err)
	}
	var legacy map[string]json.RawMessage
	if err := json.Unmarshal([]byte(legacyOptionKeys), &legacy); err != nil {
		t.Fatal(err)
	}
	for k, v := range legacy {
		if _, ok := options[k]; ok {
			t.Fatalf("options still serialize %q", k)
		}
		options[k] = v
	}
	if doc["options"], err = json.Marshal(options); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := checkpointCRC(payload)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := json.Marshal(checkpointEnvelope{Format: checkpointFormat, CRC32C: crc, Checkpoint: payload})
	if err != nil {
		t.Fatal(err)
	}

	old, err := DecodeCheckpoint(bytes.NewReader(sealed))
	if err != nil {
		t.Fatalf("legacy checkpoint rejected: %v", err)
	}
	if err := old.Validate(sys); err != nil {
		t.Fatalf("legacy checkpoint invalid: %v", err)
	}
	resumed, err := Resume(context.Background(), sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, old, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, baseline, resumed)
}

// cancelingEval cancels a context from inside an evaluation call — the
// deterministic stand-in for a SIGINT landing mid-thermal-solve rather than
// between steps.
type cancelingEval struct {
	inner  Evaluator
	cancel context.CancelFunc
	at     int
	calls  int
}

func (c *cancelingEval) Evaluate(p chiplet.Placement) (float64, float64, error) {
	c.calls++
	if c.calls == c.at {
		c.cancel()
		return 0, 0, context.Canceled
	}
	return c.inner.Evaluate(p)
}

// TestMidStepInterruptResumeBitCompatible covers the harder interrupt
// timing: when the cancellation hits *during* an evaluation, the annealer
// has already drawn the step's neighbor (and possibly decayed K), so the
// interrupt checkpoint must record the step-entry RNG position and
// annealing temperature — otherwise the resumed run draws a different
// perturbation for the re-executed step and silently diverges.
func TestMidStepInterruptResumeBitCompatible(t *testing.T) {
	sys := placerSystem()
	opt := Options{Steps: 400, Seed: 11}
	baseline, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cp *Checkpoint
	iopt := opt
	iopt.Checkpoint = func(c *Checkpoint) error { cp = c; return nil }
	ev := &cancelingEval{
		inner:  &fakeEval{sys: sys, tempBase: 120, tempSlope: 2},
		cancel: cancel,
		at:     150,
	}
	partial, err := PlaceContext(ctx, sys, ev, iopt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run error = %v, want context.Canceled", err)
	}
	if partial == nil || !partial.Interrupted {
		t.Fatalf("interrupted run did not return a best-so-far result: %+v", partial)
	}
	if cp == nil {
		t.Fatal("no checkpoint written on mid-step interrupt")
	}
	if err := cp.Validate(sys); err != nil {
		t.Fatalf("mid-step checkpoint invalid: %v", err)
	}

	resumed, err := Resume(context.Background(), sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, cp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, baseline, resumed)
}

// TestResumeFromPeriodicSnapshot resumes from a mid-run periodic snapshot
// (rather than an interrupt-time one) and must land on the identical result.
func TestResumeFromPeriodicSnapshot(t *testing.T) {
	sys := placerSystem()
	opt := Options{Steps: 300, Seed: 3, History: true}
	baseline, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}

	var snaps []*Checkpoint
	copt := opt
	copt.CheckpointEvery = 100
	copt.Checkpoint = func(c *Checkpoint) error { snaps = append(snaps, c); return nil }
	if _, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, copt); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 { // steps 100 and 200; no snapshot at the final step
		t.Fatalf("got %d periodic snapshots, want 2", len(snaps))
	}
	for _, cp := range snaps {
		resumed, err := Resume(context.Background(), sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, cp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameOutcome(t, baseline, resumed)
		if len(resumed.History) != len(baseline.History) {
			t.Fatalf("resumed history has %d samples, baseline %d", len(resumed.History), len(baseline.History))
		}
	}
}

// TestCheckpointKillResumeSystemEvaluator runs the contract end-to-end with
// the real evaluator (thermal model + router), round-tripping the checkpoint
// through its JSON file format: resumed result must be bit-identical,
// including the thermal warm-start trajectory captured in EvalState.
func TestCheckpointKillResumeSystemEvaluator(t *testing.T) {
	if testing.Short() {
		t.Skip("thermal solves in -short mode")
	}
	sys := placerSystem()
	newEval := func() *SystemEvaluator {
		ev, err := NewSystemEvaluator(sys, thermal.Options{Grid: 16}, route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	opt := Options{Steps: 30, Seed: 5, CompactSteps: 2000}
	baseline, err := Place(sys, newEval(), opt)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ckpt.json")
	ctx, progress := interruptAfter(12)
	iopt := opt
	iopt.Progress = progress
	iopt.ProgressEvery = 1
	iopt.Checkpoint = func(c *Checkpoint) error { return SaveCheckpointFile(path, c) }
	if _, err := PlaceContext(ctx, sys, newEval(), iopt); err == nil {
		t.Fatal("interrupted run returned no error")
	}

	cp, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.EvalState) == 0 {
		t.Fatal("checkpoint carries no evaluator state (thermal warm start)")
	}
	resumed, err := Resume(context.Background(), sys, newEval(), cp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, baseline, resumed)
}

func assertSameOutcome(t *testing.T, want, got *Result) {
	t.Helper()
	if got.PeakC != want.PeakC || got.WirelengthMM != want.WirelengthMM {
		t.Fatalf("resumed result (%.10g C, %.10g mm) != baseline (%.10g C, %.10g mm)",
			got.PeakC, got.WirelengthMM, want.PeakC, want.WirelengthMM)
	}
	if !reflect.DeepEqual(got.Placement, want.Placement) {
		t.Fatal("resumed placement differs from baseline")
	}
	if got.Steps != want.Steps || got.Accepted != want.Accepted {
		t.Fatalf("resumed counters steps=%d accepted=%d, baseline steps=%d accepted=%d",
			got.Steps, got.Accepted, want.Steps, want.Accepted)
	}
	if got.Interrupted {
		t.Fatal("resumed run still marked interrupted")
	}
}

// TestRestoreHookRoutesIntoResume checks the PlaceContext front door: when
// Options.Restore yields a snapshot for the run index, the run resumes
// instead of starting over.
func TestRestoreHookRoutesIntoResume(t *testing.T) {
	sys := placerSystem()
	opt := Options{Steps: 200, Seed: 21}
	baseline, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt)
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	copt := opt
	copt.CheckpointEvery = 80
	copt.Checkpoint = func(c *Checkpoint) error {
		if cp == nil {
			cp = c
		}
		return nil
	}
	if _, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, copt); err != nil {
		t.Fatal(err)
	}
	ropt := opt
	ropt.Restore = func(run int) (*Checkpoint, error) { return cp, nil }
	resumed, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, ropt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, baseline, resumed)
}

// TestPlaceBestOfPartialError is the regression for the error-path contract:
// one failing run must surface its error without discarding the solutions of
// the runs that succeeded.
func TestPlaceBestOfPartialError(t *testing.T) {
	sys := placerSystem()
	var calls atomic.Int32
	factory := func() (Evaluator, error) {
		if calls.Add(1) == 1 {
			return &failingEval{}, nil
		}
		return &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, nil
	}
	res, err := PlaceBestOf(sys, factory, 4, Options{Steps: 100, Seed: 9})
	if err == nil {
		t.Fatal("failing run's error was swallowed")
	}
	if res == nil {
		t.Fatal("partial results discarded: want best of the successful runs")
	}
	if len(res.Placement.Centers) != len(sys.Chiplets) {
		t.Fatalf("partial best has malformed placement: %+v", res.Placement)
	}
}

// TestPlaceBestOfContextCancelKeepsBest: canceling a fan-out returns the best
// best-so-far across runs, flagged interrupted.
func TestPlaceBestOfContextCancelKeepsBest(t *testing.T) {
	sys := placerSystem()
	ctx, cancel := context.WithCancel(context.Background())
	var steps atomic.Int32
	factory := func() (Evaluator, error) {
		return &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, nil
	}
	opt := Options{Steps: 5000, Seed: 1, ProgressEvery: 1, Progress: func(e Event) {
		if e.Kind == EventStep && steps.Add(1) == 40 {
			cancel()
		}
	}}
	res, err := PlaceBestOfContext(ctx, sys, factory, 3, opt)
	if err == nil {
		t.Fatal("canceled fan-out returned no error")
	}
	if res == nil || !res.Interrupted {
		t.Fatalf("canceled fan-out did not return an interrupted best-so-far: %+v", res)
	}
	if res.Steps >= opt.Steps {
		t.Fatal("winning run claims to have finished despite cancellation")
	}
}

// TestEventStream checks the progress plumbing: cadence of step events, the
// lifecycle markers, and that the JSONL sink writes one valid object per
// line.
func TestEventStream(t *testing.T) {
	sys := placerSystem()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	opt := Options{
		Steps: 120, Seed: 2,
		Progress: sink.Emit, ProgressEvery: 10,
		CheckpointEvery: 50,
		Checkpoint:      func(*Checkpoint) error { return nil },
	}
	if _, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	dec := json.NewDecoder(&buf)
	var last Event
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("malformed journal line: %v", err)
		}
		kinds[e.Kind]++
		last = e
	}
	if kinds[EventStep] == 0 {
		t.Fatal("no step events emitted")
	}
	if kinds[EventCheckpoint] != 2 { // steps 50 and 100
		t.Fatalf("checkpoint events = %d, want 2", kinds[EventCheckpoint])
	}
	if kinds[EventFinal] != 1 {
		t.Fatalf("final events = %d, want 1", kinds[EventFinal])
	}
	if last.Kind != EventFinal || last.Step != 120 || last.Steps != 120 {
		t.Fatalf("journal does not end with the final event: %+v", last)
	}
	if last.BestTempC == 0 || last.AcceptRate <= 0 {
		t.Fatalf("final event missing best metrics: %+v", last)
	}
}

// TestCheckpointValidate exercises the structural checks a snapshot must pass
// before a resume is attempted on it.
func TestCheckpointValidate(t *testing.T) {
	sys := placerSystem()
	var cp *Checkpoint
	opt := Options{Steps: 60, Seed: 4, CheckpointEvery: 30,
		Checkpoint: func(c *Checkpoint) error { cp = c; return nil }}
	if _, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no snapshot captured")
	}
	if err := cp.Validate(sys); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	bad := *cp
	bad.Version = CheckpointVersion + 1
	if bad.Validate(sys) == nil {
		t.Error("wrong version accepted")
	}
	bad = *cp
	bad.Cur = chiplet.NewPlacement(1)
	if bad.Validate(sys) == nil {
		t.Error("placement length mismatch accepted")
	}
	bad = *cp
	bad.Step = cp.Options.Steps + 1
	if bad.Validate(sys) == nil {
		t.Error("out-of-range step accepted")
	}
	bad = *cp
	bad.BoundsW = bad.BoundsW[:1]
	if bad.Validate(sys) == nil {
		t.Error("mismatched bounds arrays accepted")
	}
}

// TestSaveLoadCheckpointFile round-trips a snapshot through the on-disk JSON
// format and checks the write is atomic (no .tmp litter).
func TestSaveLoadCheckpointFile(t *testing.T) {
	sys := placerSystem()
	var cp *Checkpoint
	opt := Options{Steps: 40, Seed: 6, CheckpointEvery: 20,
		Checkpoint: func(c *Checkpoint) error { cp = c; return nil }}
	if _, err := Place(sys, &fakeEval{sys: sys, tempBase: 120, tempSlope: 2}, opt); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	if err := SaveCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFile(path + ".tmp"); err == nil {
		t.Error("temporary file left behind after atomic save")
	}
	got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != cp.Step || got.K != cp.K || got.RNGDraws != cp.RNGDraws ||
		got.RNGSeed != cp.RNGSeed || got.Accepted != cp.Accepted {
		t.Fatalf("round-tripped scalars differ: got %+v want %+v", got, cp)
	}
	if !reflect.DeepEqual(got.Cur, cp.Cur) || !reflect.DeepEqual(got.Best, cp.Best) {
		t.Fatal("round-tripped placements differ")
	}
	if !reflect.DeepEqual(got.BoundsT, cp.BoundsT) || !reflect.DeepEqual(got.BoundsW, cp.BoundsW) {
		t.Fatal("round-tripped bounds differ")
	}
}
