package service

import (
	"math"
	"net/http"
	"testing"
)

func TestJobSpecPowerScenarioValidation(t *testing.T) {
	spec := testSpec(1)
	spec.PowerScenarios = []float64{0.8, 1.0, 1.2}
	if err := spec.Validate(); err != nil {
		t.Errorf("valid scenarios rejected: %v", err)
	}
	for _, bad := range [][]float64{
		{0.8, -0.1},
		{math.NaN()},
		{math.Inf(1)},
		make([]float64, maxPowerScenarios+1),
	} {
		spec := testSpec(1)
		spec.PowerScenarios = bad
		if err := spec.Validate(); err == nil {
			t.Errorf("scenarios %v accepted", bad)
		}
	}
}

// TestPowerScenarioSweep runs a job that asks for power-corner screening:
// the done record must carry one peak per requested corner, monotone in the
// scale factor, and the unscaled corner must match the job's own peak.
func TestPowerScenarioSweep(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{})
	spec := testSpec(3)
	spec.PowerScenarios = []float64{0.5, 1.0, 1.5}
	job, resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	final := waitState(t, ts, job.ID, StateDone)
	if final.Result == nil {
		t.Fatal("done job has no result")
	}
	peaks := final.Result.ScenarioPeaksC
	if len(peaks) != 3 {
		t.Fatalf("got %d scenario peaks, want 3: %v", len(peaks), peaks)
	}
	if !(peaks[0] < peaks[1] && peaks[1] < peaks[2]) {
		t.Fatalf("peaks not monotone in power scale: %v", peaks)
	}
	// Corner 1.0 is the final placement at nominal power: the same solve the
	// flow's own final evaluation performed.
	if math.Abs(peaks[1]-final.Result.PeakC) > 1e-9 {
		t.Fatalf("nominal corner %.6f != job peak %.6f", peaks[1], final.Result.PeakC)
	}
}
