package service

import (
	"bytes"
	"math"
	"testing"
)

// FuzzJobSpec feeds arbitrary bytes through the submit path's spec decoding
// and Validate. It must never panic, and a spec Validate accepts must be
// within every size limit, load a system with a finite total power, and
// carry only finite non-negative power corners. The seed corpus in
// testdata/fuzz/FuzzJobSpec holds the load generator's default spec, a
// system_json spec built from testdata/edge_ai.json, a spec setting both
// system and system_json, a spec with runs over its limit and a system_json
// of two 1e308 W chiplets; every crasher found becomes a corpus entry there.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil || spec.Validate() != nil {
			return
		}
		for _, c := range []struct {
			name     string
			val, max int
		}{
			{"thermal_grid", spec.ThermalGrid, maxThermalGrid},
			{"steps", spec.Steps, maxSteps},
			{"runs", spec.Runs, maxRuns},
			{"compact_steps", spec.CompactSteps, maxSteps},
		} {
			if c.val < 0 || c.val > c.max {
				t.Fatalf("accepted %s = %d, outside [0, %d]", c.name, c.val, c.max)
			}
		}
		if len(spec.PowerScenarios) > maxPowerScenarios {
			t.Fatalf("accepted %d power corners, limit %d", len(spec.PowerScenarios), maxPowerScenarios)
		}
		for c, s := range spec.PowerScenarios {
			if !(s >= 0) || math.IsInf(s, 1) {
				t.Fatalf("accepted power_scenarios[%d] = %v", c, s)
			}
		}
		sys, err := spec.LoadSystem()
		if err != nil {
			t.Fatalf("accepted spec fails to load its system: %v", err)
		}
		if p := sys.TotalPower(); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("accepted a system with total power %v", p)
		}
	})
}
