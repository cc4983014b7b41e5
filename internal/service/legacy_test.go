package service

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tap25d/internal/placer"
)

// TestLegacyRecordRunsUnderGridSelectedPrecond: a queued record written by an
// older build — its spec carries the removed "precond" field, naming a
// deleted preconditioner, and its metrics carry the removed evaluation cache
// counters — still loads at boot and runs to done. The stale fields
// are ignored, so the job follows the grid-selected solver path and matches
// a fresh submission of the same spec bit for bit.
func TestLegacyRecordRunsUnderGridSelectedPrecond(t *testing.T) {
	spec := testSpec(5)

	_, refTS := newTestServer(t, t.TempDir(), Config{Workers: 1})
	refJob, _ := postJob(t, refTS, spec)
	ref := waitState(t, refTS, refJob.ID, StateDone, StateFailed)
	if ref.State != StateDone {
		t.Fatalf("reference run failed: %q", ref.Error)
	}

	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var specFields map[string]any
	if err := json.Unmarshal(specJSON, &specFields); err != nil {
		t.Fatal(err)
	}
	specFields["precond"] = "ssor"
	const id = "job-00000000legacy"
	record := map[string]any{
		"id":           id,
		"spec":         specFields,
		"state":        StateQueued,
		"trace_id":     "00000000legacy00",
		"seq":          1,
		"attempts":     0,
		"submitted_at": "2024-01-01T00:00:00Z",
		"result": map[string]any{
			"metrics": map[string]any{"evaluations": 9, "cache_hits": 2, "cache_misses": 7},
		},
	}
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := placer.WriteSealedFile(filepath.Join(jobsDir, id+".json"), jobFormat, record); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, dir, Config{Workers: 1})
	final := waitState(t, ts, id, StateDone, StateFailed, StateCanceled)
	if final.State != StateDone {
		t.Fatalf("legacy job ended %q: %s", final.State, final.Error)
	}
	if final.Result.PeakC != ref.Result.PeakC || final.Result.WirelengthMM != ref.Result.WirelengthMM {
		t.Fatalf("legacy job (%.10f°C, %.10fmm) != fresh submission (%.10f°C, %.10fmm)",
			final.Result.PeakC, final.Result.WirelengthMM, ref.Result.PeakC, ref.Result.WirelengthMM)
	}
	if !reflect.DeepEqual(final.Result.Placement, ref.Result.Placement) {
		t.Fatalf("legacy placement differs from fresh submission:\n got %+v\nwant %+v",
			final.Result.Placement, ref.Result.Placement)
	}
	if final.Result.Metrics != ref.Result.Metrics {
		t.Fatalf("legacy metrics %+v, fresh submission %+v", final.Result.Metrics, ref.Result.Metrics)
	}
}
