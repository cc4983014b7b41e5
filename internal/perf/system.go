package perf

import (
	"fmt"
	"sort"
)

// SimulateMixed runs the trace model with a mix of link latency classes:
// hist maps link latency (cycles) to the number of wires in that class, and
// each remote access is assigned a class in proportion (deterministically,
// via largest-remainder scheduling). This models a placement whose routed
// channels have heterogeneous lengths — exactly what a TAP-2.5D solution
// produces once wire length is converted to cycles by the signal model.
func SimulateMixed(w Workload, cfg Config, hist map[int]int) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(hist) == 0 {
		return Simulate(w, cfg)
	}
	classes := make([]int, 0, len(hist))
	total := 0
	for c, n := range hist {
		if c < 1 {
			return nil, fmt.Errorf("perf: latency class %d < 1 cycle", c)
		}
		if n < 0 {
			return nil, fmt.Errorf("perf: negative wire count for class %d", c)
		}
		if n > 0 {
			classes = append(classes, c)
			total += n
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("perf: empty latency histogram")
	}
	sort.Ints(classes)

	// Largest-remainder scheduler state.
	acc := make(map[int]float64, len(classes))

	nextClass := func() int {
		best := classes[0]
		for _, c := range classes {
			acc[c] += float64(hist[c]) / float64(total)
			if acc[c] > acc[best] {
				best = c
			}
		}
		acc[best] -= 1
		return best
	}

	// Mirror Simulate's core loop but with a per-access latency.
	if w.RemoteRate < 0 || w.RemoteRate > 1 {
		return nil, fmt.Errorf("perf: workload %s: remote rate %v out of [0,1]", w.Name, w.RemoteRate)
	}
	if w.MLP < 1 {
		return nil, fmt.Errorf("perf: workload %s: MLP must be >= 1", w.Name)
	}
	rng := newTraceRNG(w, cfg)

	outstanding := make([]float64, 0, w.MLP)
	cycle := 0.0
	remote := 0
	accIssue := 0.0
	for i := 0; i < traceInstructions; i++ {
		cycle += w.ComputeCPI
		accIssue += w.RemoteRate
		if accIssue < 1 {
			continue
		}
		accIssue -= 1
		remote++
		linkCycles := nextClass()
		accessLat := float64(fixedRemoteCycles +
			traversalsPerAccess*flitsPerMessage*linkCycles)

		live := outstanding[:0]
		for _, c := range outstanding {
			if c > cycle {
				live = append(live, c)
			}
		}
		outstanding = live
		if len(outstanding) >= w.MLP {
			earliest := outstanding[0]
			for _, c := range outstanding[1:] {
				if c < earliest {
					earliest = c
				}
			}
			if earliest > cycle {
				cycle = earliest
			}
			live = outstanding[:0]
			for _, c := range outstanding {
				if c > cycle {
					live = append(live, c)
				}
			}
			outstanding = live
		}
		complete := cycle + accessLat
		if rng.Float64() < w.DependentFrac {
			cycle = complete
		} else {
			outstanding = append(outstanding, complete)
		}
	}
	for _, c := range outstanding {
		if c > cycle {
			cycle = c
		}
	}
	return &Result{
		Cycles:         cycle,
		Instructions:   traceInstructions,
		CPI:            cycle / traceInstructions,
		RemoteAccesses: remote,
	}, nil
}

// SlowdownMixed returns the fractional slowdown of workload w under the
// latency-class mix hist relative to an all-single-cycle network.
func SlowdownMixed(w Workload, cfg Config, hist map[int]int) (float64, error) {
	base := cfg
	base.LinkLatencyCycles = 1
	b, err := Simulate(w, base)
	if err != nil {
		return 0, err
	}
	m, err := SimulateMixed(w, cfg, hist)
	if err != nil {
		return 0, err
	}
	return (m.Cycles - b.Cycles) / b.Cycles, nil
}

// PlacementImpact is the end-to-end performance assessment of a placement:
// the slowdown its link-latency mix causes (mean over the workload suite)
// and the net speedup once the TDP headroom is spent on frequency.
type PlacementImpact struct {
	// MeanSlowdown is the average fractional slowdown across workloads due
	// to multi-cycle links (0.11 = 11% slower at equal frequency).
	MeanSlowdown float64
	// WorstSlowdown is the most affected workload's slowdown.
	WorstSlowdown float64
	// FrequencyUplift is the fractional clock increase enabled by the TDP
	// gain (power ~ f at fixed voltage, so uplift = TDP ratio - 1).
	FrequencyUplift float64
	// NetSpeedup is (1 + uplift) / (1 + mean slowdown) - 1: the overall
	// performance change of the placement versus the 1-cycle baseline at
	// nominal frequency.
	NetSpeedup float64
	// PerWorkload maps workload name to its slowdown.
	PerWorkload map[string]float64
}

// AssessPlacement computes the PlacementImpact for a link-latency histogram
// (wires per latency class) and a frequency uplift fraction. The histogram
// is typically produced by the signal model from routed arc lengths.
func AssessPlacement(hist map[int]int, freqUplift float64, cfg Config) (*PlacementImpact, error) {
	imp := &PlacementImpact{FrequencyUplift: freqUplift, PerWorkload: map[string]float64{}}
	ws := Workloads()
	for _, w := range ws {
		s, err := SlowdownMixed(w, cfg, hist)
		if err != nil {
			return nil, err
		}
		imp.PerWorkload[w.Name] = s
		imp.MeanSlowdown += s
		if s > imp.WorstSlowdown {
			imp.WorstSlowdown = s
		}
	}
	imp.MeanSlowdown /= float64(len(ws))
	imp.NetSpeedup = (1+freqUplift)/(1+imp.MeanSlowdown) - 1
	return imp, nil
}
