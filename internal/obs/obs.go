// Package obs is the repo's low-overhead observability subsystem: hierarchical
// span tracing, fixed-bucket timing histograms for the hot phases of a
// placement flow (SA step, thermal assemble/solve, route solve, checkpoint
// write), per-solve conjugate-gradient convergence traces, a counter/gauge
// registry that absorbs the evaluation counters of internal/metrics, and a
// live view of every annealing run. An Observer is exposed three ways: the
// opt-in HTTP debug server (Serve: net/http/pprof, expvar, Prometheus-text
// /metrics, a /run JSON view), snapshots attached to the structured JSONL run
// events at checkpoint boundaries (EventSnapshot), and an end-of-run Report
// (JSON plus a human-readable table).
//
// Every method of Observer, Span and CGTrace is safe to call on a nil
// receiver and returns immediately: a nil *Observer IS the disabled state,
// so instrumented code needs no flags and the disabled fast path costs a
// pointer test per call site — no allocation, no locks, no time reads.
// Instrumentation is timing-only by design: an enabled Observer never
// perturbs random-number draws or floating-point arithmetic, so observed and
// unobserved runs produce bit-identical placements.
//
// All mutating operations on an enabled Observer are safe for concurrent use
// by parallel annealing runs: histograms and named counters are atomic, and
// per-run state is sharded by run index behind one mutex.
package obs

import (
	"context"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tap25d/internal/metrics"
)

// Phase identifies one instrumented hot phase. Each phase owns one fixed-
// bucket duration histogram on the Observer.
type Phase uint8

// Instrumented phases, ordered as they appear in reports.
const (
	// PhaseSAStep covers one full simulated-annealing step: neighbor
	// generation, evaluation, acceptance bookkeeping.
	PhaseSAStep Phase = iota
	// PhaseInitialPlacement covers the Compact-2.5D initial placement and
	// its first evaluation, once per run.
	PhaseInitialPlacement
	// PhaseThermalSolve covers one thermal solve end to end (assembly
	// included): a steady solve, or a whole batch, transient or liquid
	// solve, labeled "batch", "transient" or "liquid".
	PhaseThermalSolve
	// PhaseThermalAssemble covers the conductance-matrix work of one solve:
	// full rebuild, delta update, or the (near-free) skipped case.
	PhaseThermalAssemble
	// PhaseRouteSolve covers one inter-chiplet routing call (fast or MILP).
	PhaseRouteSolve
	// PhaseCheckpointWrite covers persisting one run snapshot.
	PhaseCheckpointWrite
	// PhaseSurrogateEval covers one analytical-surrogate prediction during
	// a two-fidelity prescreen (microseconds; contrast with
	// PhaseThermalSolve to see the fidelity gap).
	PhaseSurrogateEval
	// PhaseJobSubmit covers accepting one job into the service queue
	// (validation, idempotency/quota checks, sealed persist).
	PhaseJobSubmit
	// PhaseJobExecute covers one whole job attempt on a service worker, from
	// dispatch to terminal state or drain; every placement span of the
	// attempt nests under it.
	PhaseJobExecute
	// PhaseJobReclaim covers one fenced reclamation of an expired or
	// orphaned job lease by a scavenger: epoch bump, retry-budget decision,
	// record persist.
	PhaseJobReclaim
	// PhaseMGRefresh covers the multigrid hierarchy work inside a thermal
	// solve: a fresh hierarchy's build (label "build") or the numeric
	// refresh after a value-changing assembly (label "refresh").
	PhaseMGRefresh
	numPhases
)

// phaseNames are the stable external identifiers (Prometheus label values,
// report keys, JSONL keys).
var phaseNames = [numPhases]string{
	"sa_step",
	"initial_placement",
	"thermal_solve",
	"thermal_assemble",
	"route_solve",
	"checkpoint_write",
	"surrogate_eval",
	"job_submit",
	"job_execute",
	"job_reclaim",
	"mg_refresh",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Observer collects spans, histograms, traces and run state. The zero value
// is not usable; construct with New. A nil *Observer is the disabled state:
// every method no-ops.
type Observer struct {
	start    time.Time
	phases   [numPhases]Histogram
	cgIters  Histogram // CG iterations-to-converge per thermal solve
	spans    spanRing
	cgSeq    atomic.Uint64
	cgTraces cgRing
	spanSeq  atomic.Uint64 // span IDs within traces (tracefile.go)
	sinkN    atomic.Int32  // attached trace sinks, checked before taking mu

	mu       sync.Mutex
	runs     map[int]*runState
	flow     metrics.Counters // counters absorbed outside any run
	extra    map[string]*atomic.Int64
	extraKey []string // registration order, for stable export
	gauges   map[string]float64
	named    map[string]*Histogram // named duration histograms (service)
	sinks    map[string]*TraceSink // per-trace durable span sinks
	slo      *SLOConfig            // declared objectives (slo.go)
}

// New returns an enabled Observer.
func New() *Observer {
	return &Observer{
		start:  time.Now(),
		runs:   make(map[int]*runState),
		extra:  make(map[string]*atomic.Int64),
		gauges: make(map[string]float64),
		named:  make(map[string]*Histogram),
		sinks:  make(map[string]*TraceSink),
	}
}

// Enabled reports whether o collects anything. It is the nil test that every
// instrumentation site performs implicitly.
func (o *Observer) Enabled() bool { return o != nil }

// Uptime is the time since New.
func (o *Observer) Uptime() time.Duration {
	if o == nil {
		return 0
	}
	return time.Since(o.start)
}

// PhaseHistogram exposes the duration histogram of one phase (nil when
// disabled or out of range). Durations are recorded in nanoseconds.
func (o *Observer) PhaseHistogram(p Phase) *Histogram {
	if o == nil || p >= numPhases {
		return nil
	}
	return &o.phases[p]
}

// ObservePhase records one completed duration directly into a phase
// histogram, for callers that time a region without wanting a Span record.
func (o *Observer) ObservePhase(p Phase, d time.Duration) {
	if o == nil || p >= numPhases || d < 0 {
		return
	}
	o.phases[p].Observe(uint64(d))
}

// Add increments (creating on first use) a named extension counter. Names
// should be snake_case; they are exported as tap25d_<name>_total on /metrics
// and under "extra" in the Report.
func (o *Observer) Add(name string, delta int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.addLocked(name, delta)
	o.mu.Unlock()
}

// addLocked is Add for callers already holding o.mu (the anomaly detector
// runs inside RecordSAStep's critical section).
func (o *Observer) addLocked(name string, delta int64) {
	c, ok := o.extra[name]
	if !ok {
		c = new(atomic.Int64)
		o.extra[name] = c
		o.extraKey = append(o.extraKey, name)
	}
	c.Add(delta)
}

// extraSnapshot returns the named counters in registration order.
func (o *Observer) extraSnapshot() map[string]int64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.extra) == 0 {
		return nil
	}
	out := make(map[string]int64, len(o.extra))
	for name, c := range o.extra {
		out[name] = c.Load()
	}
	return out
}

// SetGauge sets a named instantaneous value (last write wins) — queue depth,
// busy workers, in-flight jobs. Gauges are exported as
// tap25d_gauge{name="..."} on /metrics. Names should be snake_case.
func (o *Observer) SetGauge(name string, v float64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.gauges[name] = v
	o.mu.Unlock()
}

// gaugeSnapshot returns the gauges by name.
func (o *Observer) gaugeSnapshot() map[string]float64 {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.gauges) == 0 {
		return nil
	}
	out := make(map[string]float64, len(o.gauges))
	for name, v := range o.gauges {
		out[name] = v
	}
	return out
}

// ObserveNamed records one duration into a named histogram (created on first
// use) — job latency, queue wait. Named histograms are exported as
// tap25d_named_duration_seconds{name="..."} on /metrics, beside the
// fixed-phase histograms of ObservePhase. Names should be snake_case.
func (o *Observer) ObserveNamed(name string, d time.Duration) {
	if o == nil || d < 0 {
		return
	}
	o.mu.Lock()
	h, ok := o.named[name]
	if !ok {
		h = &Histogram{}
		o.named[name] = h
	}
	o.mu.Unlock()
	h.Observe(uint64(d))
}

// NamedHistogram exposes one named duration histogram (nil when disabled or
// never observed). Durations are recorded in nanoseconds.
func (o *Observer) NamedHistogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.named[name]
}

// namedSnapshot returns a snapshot of every named histogram.
func (o *Observer) namedSnapshot() map[string]HistogramSnapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.named) == 0 {
		return nil
	}
	out := make(map[string]HistogramSnapshot, len(o.named))
	for name, h := range o.named {
		out[name] = h.Snapshot()
	}
	return out
}

// Do runs f under pprof labels (key/value pairs from kv) when o is enabled,
// so CPU and goroutine profiles taken from the debug server attribute hot
// goroutines — e.g. the parallel annealing runs — to their run index. When o
// is nil, f runs directly with ctx and the profiler is never touched.
func (o *Observer) Do(ctx context.Context, f func(context.Context), kv ...string) {
	if o == nil || len(kv) < 2 {
		f(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels(kv...), f)
}

// --- per-run live state ----------------------------------------------------

// saSeriesCap bounds the per-run SA time series ring: with the default 1000
// step budget the whole run fits; longer runs keep the most recent window.
const saSeriesCap = 4096

// SAPoint is one annealing step's observability record: the acceptance-rate
// and cost-component time series of a run is a ring of these.
type SAPoint struct {
	Step         int     `json:"step"`
	K            float64 `json:"k"`
	Alpha        float64 `json:"alpha"`
	TempC        float64 `json:"temp_c"`
	WirelengthMM float64 `json:"wirelength_mm"`
	Cost         float64 `json:"cost"`
	Accepted     bool    `json:"accepted"`
	// AcceptRate is accepted moves over completed steps so far.
	AcceptRate float64 `json:"accept_rate"`
	// BestTempC and BestWirelengthMM track the run's best solution so far.
	BestTempC        float64 `json:"best_temp_c"`
	BestWirelengthMM float64 `json:"best_wirelength_mm"`
}

// RunStatus is the live view of one annealing run, served by /run.
type RunStatus struct {
	Run   int `json:"run"`
	Step  int `json:"step"`
	Steps int `json:"steps"`
	// State is the latest lifecycle marker: "running", "checkpoint",
	// "resumed", "final" or "interrupted".
	State            string           `json:"state"`
	K                float64          `json:"k"`
	BestTempC        float64          `json:"best_temp_c"`
	BestWirelengthMM float64          `json:"best_wirelength_mm"`
	AcceptRate       float64          `json:"accept_rate"`
	Counters         metrics.Counters `json:"counters"`
}

type runState struct {
	status RunStatus
	series []SAPoint // ring
	next   int       // next write slot
	filled bool
	anom   anomalyState // convergence-anomaly detector state (anomaly.go)
}

func (o *Observer) run(r int) *runState {
	rs, ok := o.runs[r]
	if !ok {
		rs = &runState{status: RunStatus{Run: r, State: "running"}}
		o.runs[r] = rs
	}
	return rs
}

// RecordSAStep appends one step to run's SA time series and refreshes the
// live run status from it. steps is the run's step budget.
func (o *Observer) RecordSAStep(run, steps int, p SAPoint) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	rs := o.run(run)
	if len(rs.series) < saSeriesCap {
		rs.series = append(rs.series, p)
	} else {
		rs.series[rs.next] = p
		rs.next = (rs.next + 1) % saSeriesCap
		rs.filled = true
	}
	rs.status.Step = p.Step + 1
	rs.status.Steps = steps
	rs.status.K = p.K
	rs.status.BestTempC = p.BestTempC
	rs.status.BestWirelengthMM = p.BestWirelengthMM
	rs.status.AcceptRate = p.AcceptRate
	rs.status.State = "running"
	o.checkAnomaliesLocked(rs, run, steps, p)
}

// SetRunState marks a lifecycle transition of a run ("checkpoint", "resumed",
// "final", "interrupted").
func (o *Observer) SetRunState(run int, state string) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.run(run).status.State = state
}

// SetRunCounters absorbs a run's evaluation-counter snapshot; /run serves
// them per run and the Report sums them across runs.
func (o *Observer) SetRunCounters(run int, c metrics.Counters) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.run(run).status.Counters = c
}

// RunStatuses snapshots every known run, ordered by run index.
func (o *Observer) RunStatuses() []RunStatus {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]RunStatus, 0, len(o.runs))
	for _, rs := range o.runs {
		out = append(out, rs.status)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

// SASeries returns run's acceptance-rate/cost time series in step order
// (oldest first; at most saSeriesCap points).
func (o *Observer) SASeries(run int) []SAPoint {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	rs, ok := o.runs[run]
	if !ok {
		return nil
	}
	if !rs.filled {
		return append([]SAPoint(nil), rs.series...)
	}
	out := make([]SAPoint, 0, len(rs.series))
	out = append(out, rs.series[rs.next:]...)
	out = append(out, rs.series[:rs.next]...)
	return out
}

// AbsorbCounters accumulates evaluation counters that accrue outside any
// annealing run — the facade's final full-fidelity evaluation, a standalone
// Evaluate call — so the report's counter total covers the whole flow, not
// just the runs.
func (o *Observer) AbsorbCounters(c metrics.Counters) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.flow.Merge(c)
}

// countersTotal sums the absorbed per-run and flow-level counters.
func (o *Observer) countersTotal() metrics.Counters {
	var total metrics.Counters
	if o == nil {
		return total
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	total.Merge(o.flow)
	for _, rs := range o.runs {
		total.Merge(rs.status.Counters)
	}
	return total
}
