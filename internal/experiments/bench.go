package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"tap25d"
	"tap25d/internal/obs"
	"tap25d/internal/systems"
)

// BenchmarkSurrogate measures what the two-fidelity evaluator buys on the E1
// multi-GPU case study: it runs the TAP-2.5D flow twice at the given fidelity
// — exact-only and with the analytical surrogate prescreen — and reports SA
// throughput, the speedup, and the end-quality deltas between the two flows
// as BENCH_*.json entries (docs/OPERATIONS.md documents the schema). The
// Compact-2.5D baseline runs once for the quality anchor; it performs no SA
// thermal evaluation, so the surrogate cannot change it.
func BenchmarkSurrogate(cfg Config) (*Report, []obs.BenchEntry, error) {
	cfg = cfg.withDefaults()
	sys := systems.MultiGPU()
	opt := cfg.options()
	opt.Surrogate = false

	compact, err := tap25d.PlaceCompact(sys, opt)
	if err != nil {
		return nil, nil, err
	}

	start := time.Now()
	exact, err := cfg.place(sys, opt)
	if err != nil {
		return nil, nil, err
	}
	exactSec := time.Since(start).Seconds()

	surOpt := opt
	surOpt.Surrogate = true
	start = time.Now()
	sur, err := cfg.place(sys, surOpt)
	if err != nil {
		return nil, nil, err
	}
	surSec := time.Since(start).Seconds()

	totalSteps := float64(cfg.Steps * cfg.Runs)
	exactRate := totalSteps / exactSec
	surRate := totalSteps / surSec
	speedup := surRate / exactRate
	tempDeltaPct := 100 * math.Abs(sur.PeakC-exact.PeakC) / exact.PeakC
	wlDeltaPct := 100 * math.Abs(sur.WirelengthMM-exact.WirelengthMM) / exact.WirelengthMM

	entries := []obs.BenchEntry{
		{Name: "tap25d/e1/exact_sa_steps_per_sec", Unit: "steps/s", Value: exactRate},
		{Name: "tap25d/e1/surrogate_sa_steps_per_sec", Unit: "steps/s", Value: surRate},
		{Name: "tap25d/e1/surrogate_speedup", Unit: "x", Value: speedup},
		{Name: "tap25d/e1/compact_temp_c", Unit: "C", Value: compact.PeakC},
		{Name: "tap25d/e1/exact_tap_temp_c", Unit: "C", Value: exact.PeakC},
		{Name: "tap25d/e1/surrogate_tap_temp_c", Unit: "C", Value: sur.PeakC},
		{Name: "tap25d/e1/surrogate_temp_delta_pct", Unit: "%", Value: tempDeltaPct},
		{Name: "tap25d/e1/surrogate_wl_delta_pct", Unit: "%", Value: wlDeltaPct},
	}
	if st := sur.Surrogate; st != nil {
		entries = append(entries,
			obs.BenchEntry{Name: "tap25d/e1/surrogate_hit_rate", Unit: "fraction", Value: st.HitRate},
			obs.BenchEntry{Name: "tap25d/e1/surrogate_drift_rms_c", Unit: "C", Value: st.DriftRMSC},
		)
	}

	rep := &Report{
		ID:    "BENCH-E1",
		Title: "Two-fidelity surrogate prescreen vs exact-only on the Multi-GPU system",
		Rows: []Row{
			{Label: "Compact-2.5D baseline", TempC: compact.PeakC, WirelengthMM: compact.WirelengthMM},
			{Label: "TAP-2.5D exact-only", TempC: exact.PeakC, WirelengthMM: exact.WirelengthMM,
				Extra: map[string]float64{"steps/s": exactRate}},
			{Label: "TAP-2.5D surrogate prescreen", TempC: sur.PeakC, WirelengthMM: sur.WirelengthMM,
				Extra: map[string]float64{"steps/s": surRate, "speedup": speedup}},
		},
		Notes: []string{
			fmt.Sprintf("speedup %.2fx at %.0f SA steps per flow; temp delta %.3f%%, WL delta %.2f%%",
				speedup, totalSteps, tempDeltaPct, wlDeltaPct),
		},
		Elapsed: time.Duration((exactSec + surSec) * float64(time.Second)),
	}
	if st := sur.Surrogate; st != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"surrogate: %d prescreens, %d rejects (hit rate %.2f), %d audits, %d refits, drift RMS %.3f C",
			st.Prescreens, st.Rejects, st.HitRate, st.Audits, st.Refits, st.DriftRMSC))
	}
	mergeCounters(rep, compact, exact, sur)
	return rep, entries, nil
}

// WriteBenchEntries writes benchmark entries as the indented JSON array the
// BENCH_*.json artifacts use.
func WriteBenchEntries(w io.Writer, entries []obs.BenchEntry) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(entries)
}
