package placer

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tap25d/internal/metrics"
	"tap25d/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestJSONLSinkConcurrentEmitters drives one sink from many goroutines, as
// PlaceBestOf does with parallel runs sharing a journal. Every emitted event
// must come out as exactly one intact JSON line: no lost events, no
// interleaved partial writes. Run with -race to also check the locking.
func TestJSONLSinkConcurrentEmitters(t *testing.T) {
	const (
		emitters = 8
		events   = 200
	)
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	for r := 0; r < emitters; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for s := 0; s < events; s++ {
				ctr := metrics.Counters{Evaluations: int64(s + 1)}
				sink.Emit(Event{
					Kind: EventStep, Run: r, Step: s, Steps: events,
					K: 0.5, BestTempC: 80, BestWirelengthMM: 100,
					Counters: &ctr,
				})
			}
		}(r)
	}
	wg.Wait()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != emitters*events {
		t.Fatalf("journal has %d lines, want %d", len(lines), emitters*events)
	}
	seen := make(map[[2]int]bool, emitters*events)
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not valid JSON (%v): %q", i, err, line)
		}
		key := [2]int{e.Run, e.Step}
		if seen[key] {
			t.Fatalf("duplicate event run=%d step=%d", e.Run, e.Step)
		}
		seen[key] = true
		if e.Counters == nil || e.Counters.Evaluations != int64(e.Step+1) {
			t.Fatalf("line %d: counters corrupted: %+v", i, e.Counters)
		}
	}
	if len(seen) != emitters*events {
		t.Fatalf("journal covers %d distinct (run, step) pairs, want %d", len(seen), emitters*events)
	}
}

// TestEventGoldenSchema locks the JSONL wire format, including the
// observability snapshot attached to lifecycle events, against a checked-in
// golden file. The events are built by hand from deterministic values, so a
// byte-for-byte comparison is stable; regenerate with `go test -run
// TestEventGoldenSchema -update` after an intentional schema change and
// review the diff (docs/OPERATIONS.md documents the schema).
func TestEventGoldenSchema(t *testing.T) {
	ctr := metrics.Counters{
		Evaluations: 42, ThermalSolves: 32, CGIterations: 640,
		FullAssembles: 1, DeltaAssembles: 30, SkippedAssembles: 1,
		RouteCalls: 32, Checkpoints: 2, Resumes: 1,
		SurrogatePrescreens: 180, SurrogateRejects: 150,
		SurrogateAudits: 9, SurrogateRefits: 1,
	}
	step := Event{
		Kind: EventStep, Run: 0, Step: 250, Steps: 1000,
		K: 0.71, Alpha: 0.62, Op: "move", Accepted: true,
		TempC: 91.25, WirelengthMM: 1302, Cost: 0.84,
		BestTempC: 88.5, BestWirelengthMM: 1250, AcceptRate: 0.52,
		Counters: &ctr,
	}
	checkpoint := Event{
		Kind: EventCheckpoint, Run: 1, Step: 500, Steps: 1000,
		K: 0.35, BestTempC: 83.52, BestWirelengthMM: 1210, AcceptRate: 0.44,
		Counters: &ctr,
		Surrogate: &SurrogateStats{
			Prescreens: 180, Rejects: 150, Audits: 9, Refits: 1,
			DriftRMSC: 0.45, HitRate: 0.8333333333333334,
		},
		Obs: &obs.EventSnapshot{
			UptimeNS: 1_500_000_000,
			Phases: []obs.PhaseSummary{
				{Phase: "sa_step", Count: 500, TotalNS: 1_000_000_000, MeanNS: 2e6,
					P50NS: 2097151, P90NS: 2097151, P99NS: 4194303, MaxNS: 3_500_000},
				{Phase: "thermal_solve", Count: 480, TotalNS: 720_000_000, MeanNS: 1.5e6,
					P50NS: 2097151, P90NS: 2097151, P99NS: 2097151, MaxNS: 1_900_000},
			},
			CGIterations: obs.HistogramSnapshot{
				Count: 480, Sum: 9600, Max: 40,
				Buckets: []obs.Bucket{{Upper: 15, Count: 100}, {Upper: 31, Count: 300}, {Upper: 63, Count: 80}},
			},
		},
	}

	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(step)
	sink.Emit(checkpoint)
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "event_golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal output drifted from %s:\n got: %s\nwant: %s", golden, buf.Bytes(), want)
	}

	// The step line must stay lean: no observability or surrogate payload on
	// step events.
	lines := strings.SplitN(buf.String(), "\n", 2)
	if strings.Contains(lines[0], `"obs"`) {
		t.Fatalf("step event carries an obs payload: %s", lines[0])
	}
	if strings.Contains(lines[0], `"surrogate":{`) {
		t.Fatalf("step event carries a surrogate payload: %s", lines[0])
	}
}
