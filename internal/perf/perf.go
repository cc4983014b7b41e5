// Package perf implements the trace-driven performance model behind the
// paper's link-latency study (Section IV-B): "increasing the inter-chiplet
// link latency from 1 cycle to 2 cycles results in 5% to 18% (11% on
// average) performance loss, and increasing the latency from 1 cycle to
// 3 cycles results in 18% to 39% (25% on average) performance loss", measured
// over PARSEC, SPLASH2 and UHPC benchmarks.
//
// The authors ran full workloads on an architectural simulator; this package
// substitutes a synthetic-trace model (documented in DESIGN.md): an in-order
// core issuing a deterministic instruction mix in which a workload-specific
// fraction of instructions are remote inter-chiplet accesses. Each access
// makes a request and a reply traversal of the inter-chiplet link with 2-flit
// serialization, so one added cycle of link latency costs four cycles per
// access; independent accesses overlap through a bounded MLP window while
// dependent accesses stall the core. The workload parameters (remote access
// rate, dependent fraction, memory-level parallelism) span the published
// range of memory intensity across the three suites.
package perf

import (
	"fmt"
	"math/rand"
)

// Workload describes a synthetic benchmark trace.
type Workload struct {
	Name  string
	Suite string // "parsec", "splash2", or "uhpc"
	// RemoteRate is the fraction of instructions that issue a remote
	// inter-chiplet access.
	RemoteRate float64
	// DependentFrac is the fraction of remote accesses whose result the
	// next instruction needs immediately (blocking).
	DependentFrac float64
	// MLP is the maximum number of outstanding remote accesses.
	MLP int
	// ComputeCPI is the base cycles-per-instruction of non-memory work.
	ComputeCPI float64
}

// Workloads returns the benchmark set modeled on the three suites the paper
// uses. Parameters span low memory intensity (blackscholes-like) to high
// (ocean/stream-like).
func Workloads() []Workload {
	return []Workload{
		// PARSEC-like
		{Name: "blackscholes", Suite: "parsec", RemoteRate: 0.050, DependentFrac: 0.50, MLP: 4, ComputeCPI: 1.0},
		{Name: "bodytrack", Suite: "parsec", RemoteRate: 0.070, DependentFrac: 0.55, MLP: 4, ComputeCPI: 1.0},
		{Name: "canneal", Suite: "parsec", RemoteRate: 0.130, DependentFrac: 0.85, MLP: 2, ComputeCPI: 1.1},
		{Name: "streamcluster", Suite: "parsec", RemoteRate: 0.110, DependentFrac: 0.60, MLP: 4, ComputeCPI: 1.0},
		// SPLASH2-like
		{Name: "barnes", Suite: "splash2", RemoteRate: 0.060, DependentFrac: 0.55, MLP: 4, ComputeCPI: 1.0},
		{Name: "fft", Suite: "splash2", RemoteRate: 0.090, DependentFrac: 0.55, MLP: 6, ComputeCPI: 1.0},
		{Name: "lu", Suite: "splash2", RemoteRate: 0.065, DependentFrac: 0.55, MLP: 4, ComputeCPI: 1.0},
		{Name: "ocean", Suite: "splash2", RemoteRate: 0.130, DependentFrac: 0.70, MLP: 4, ComputeCPI: 1.1},
		// UHPC-like
		{Name: "graph", Suite: "uhpc", RemoteRate: 0.150, DependentFrac: 0.90, MLP: 2, ComputeCPI: 1.1},
		{Name: "stream", Suite: "uhpc", RemoteRate: 0.150, DependentFrac: 0.55, MLP: 8, ComputeCPI: 1.0},
		{Name: "stencil", Suite: "uhpc", RemoteRate: 0.100, DependentFrac: 0.60, MLP: 4, ComputeCPI: 1.0},
		{Name: "sort", Suite: "uhpc", RemoteRate: 0.080, DependentFrac: 0.65, MLP: 4, ComputeCPI: 1.0},
	}
}

// Config sets trace and link parameters.
type Config struct {
	// LinkLatencyCycles is the one-way inter-chiplet link latency in cycles
	// (the paper studies 1, 2 and 3).
	LinkLatencyCycles int
	// Seed drives trace jitter; the same seed reproduces the same trace.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.LinkLatencyCycles == 0 {
		c.LinkLatencyCycles = 1
	}
	return c
}

// Trace model constants. A remote access costs fixedRemoteCycles (cache
// controller, router, protocol; independent of placement) plus
// traversalsPerAccess link crossings (request + reply) of flitsPerMessage
// serialized flits each. Every trace runs traceInstructions instructions.
const (
	fixedRemoteCycles   = 12
	traversalsPerAccess = 2
	flitsPerMessage     = 2
	traceInstructions   = 200000
)

// newTraceRNG derives the deterministic per-trace random stream: the same
// workload, seed and latency configuration always replay the same trace.
func newTraceRNG(w Workload, cfg Config) *rand.Rand {
	return rand.New(rand.NewSource(cfg.Seed ^ int64(len(w.Name))<<32 ^ int64(cfg.LinkLatencyCycles)))
}

// Result reports a simulated execution.
type Result struct {
	Cycles       float64
	Instructions int
	CPI          float64
	// RemoteAccesses is the number of inter-chiplet accesses issued.
	RemoteAccesses int
}

// Simulate runs the in-order trace model for one workload.
func Simulate(w Workload, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if w.RemoteRate < 0 || w.RemoteRate > 1 {
		return nil, fmt.Errorf("perf: workload %s: remote rate %v out of [0,1]", w.Name, w.RemoteRate)
	}
	if w.MLP < 1 {
		return nil, fmt.Errorf("perf: workload %s: MLP must be >= 1", w.Name)
	}
	rng := newTraceRNG(w, cfg)

	// Per-access latency in cycles.
	accessLat := float64(fixedRemoteCycles +
		traversalsPerAccess*flitsPerMessage*cfg.LinkLatencyCycles)

	// Outstanding remote accesses: completion times, bounded by MLP.
	outstanding := make([]float64, 0, w.MLP)
	cycle := 0.0
	remote := 0
	// Deterministic access schedule with jitter: an access every
	// 1/RemoteRate instructions on average.
	acc := 0.0
	for i := 0; i < traceInstructions; i++ {
		cycle += w.ComputeCPI
		acc += w.RemoteRate
		if acc < 1 {
			continue
		}
		acc -= 1
		remote++
		// Retire completed accesses.
		live := outstanding[:0]
		for _, c := range outstanding {
			if c > cycle {
				live = append(live, c)
			}
		}
		outstanding = live
		// If the MLP window is full, stall until the earliest completes.
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
			// Blocking access: the core waits for the reply.
			cycle = complete
		} else {
			outstanding = append(outstanding, complete)
		}
	}
	// Drain.
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

// Slowdown returns the fractional performance loss of running w at
// linkLatency cycles relative to 1 cycle (e.g. 0.11 = 11% slower).
func Slowdown(w Workload, linkLatency int, cfg Config) (float64, error) {
	base := cfg
	base.LinkLatencyCycles = 1
	b, err := Simulate(w, base)
	if err != nil {
		return 0, err
	}
	cur := cfg
	cur.LinkLatencyCycles = linkLatency
	c, err := Simulate(w, cur)
	if err != nil {
		return 0, err
	}
	return (c.Cycles - b.Cycles) / b.Cycles, nil
}

// Study runs the full E5 experiment: per-workload slowdowns at the given
// link latencies, plus min/max/mean rows matching the paper's summary.
type Study struct {
	LinkLatency int
	PerWorkload map[string]float64
	Min, Max    float64
	Mean        float64
}

// RunStudy evaluates every workload at each link latency in latencies.
func RunStudy(latencies []int, cfg Config) ([]Study, error) {
	ws := Workloads()
	var out []Study
	for _, lat := range latencies {
		st := Study{LinkLatency: lat, PerWorkload: map[string]float64{}, Min: 1e9, Max: -1e9}
		for _, w := range ws {
			s, err := Slowdown(w, lat, cfg)
			if err != nil {
				return nil, err
			}
			st.PerWorkload[w.Name] = s
			if s < st.Min {
				st.Min = s
			}
			if s > st.Max {
				st.Max = s
			}
			st.Mean += s
		}
		st.Mean /= float64(len(ws))
		out = append(out, st)
	}
	return out, nil
}
