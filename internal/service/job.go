// Package service implements placement-as-a-service: a persistent job queue
// with tenant quotas and priorities, workers that execute placement jobs
// through the tap25d facade, per-job checkpoint directories so in-flight
// jobs survive a process death, an HTTP/JSON API to submit and track jobs,
// and a per-job Server-Sent-Events stream that fans out the placer's RunEvent
// journal to any number of watchers.
//
// Durability reuses the checkpoint machinery: every job record is a
// CRC-sealed JSON envelope (placer.WriteSealedFile, format "tap25d-job")
// written atomically, and every running job checkpoints its annealing state
// into its own placer.FileStore directory. A killed server therefore loses
// nothing: on restart, queued jobs are still queued, running jobs are
// reclaimed and resume bit-compatibly from their last checkpoint, and
// terminal jobs keep their results.
//
// The queue is shared by processes, not just goroutines: any number of
// worker processes (cmd/tap25d-worker, or the server's own in-process pool)
// attach to one data directory and claim jobs through the file-based lease
// protocol in lease.go. A claim atomically creates a CRC-sealed lease file
// carrying a fencing epoch; checkpoints and record writes re-verify the
// lease, so a worker whose lease was reclaimed (crash, wedge, partition)
// cannot corrupt the job a peer has taken over. Scavengers (every worker and
// the server run one) detect expired leases and re-queue the job with an
// incremented epoch under a per-job retry budget with exponential backoff.
package service

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"tap25d"
)

// jobFormat tags the sealed on-disk job records.
const jobFormat = "tap25d-job"

// Job states. The lifecycle is queued → running → {done, failed, canceled},
// with one backward edge: a drain or crash moves running jobs back to queued
// (they resume from their checkpoint).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobSpec is the client-supplied description of one placement job: which
// system to place and the knobs of the flow. The zero value of every field is
// a valid default; see docs/SERVICE.md for the schema.
type JobSpec struct {
	// System names a built-in case-study system ("multigpu", "cpudram",
	// "ascend910"). Exactly one of System and SystemJSON must be set.
	System string `json:"system,omitempty"`
	// SystemJSON is a custom system description in the JSON format accepted
	// by tap25d.LoadSystem.
	SystemJSON json.RawMessage `json:"system_json,omitempty"`
	// ThermalGrid, Steps, Runs, CompactSteps and Seed mirror the tap25d
	// Options fields of the same names (zero keeps the library default).
	ThermalGrid  int   `json:"thermal_grid,omitempty"`
	Steps        int   `json:"steps,omitempty"`
	Runs         int   `json:"runs,omitempty"`
	CompactSteps int   `json:"compact_steps,omitempty"`
	Seed         int64 `json:"seed,omitempty"`
	// GasStation enables 2-stage pipelined routing (Eqn. 9).
	GasStation bool `json:"gas_station,omitempty"`
	// PowerScenarios, when non-empty, asks the worker to re-evaluate the
	// final placement under these whole-system power scale factors (one
	// thermal solve at nominal power, scaled per corner); the per-corner
	// peak temperatures are returned in JobResult.ScenarioPeaksC. This is
	// power-corner screening: "is the placement still feasible at 120%
	// TDP?" without extra jobs.
	PowerScenarios []float64 `json:"power_scenarios,omitempty"`
	// NoSurrogate disables the two-fidelity surrogate prescreen. Like the
	// CLIs, the service runs with the surrogate ON by default.
	NoSurrogate bool `json:"no_surrogate,omitempty"`
	// Priority orders the queue: higher runs first; ties run in submission
	// order.
	Priority int `json:"priority,omitempty"`
	// Tenant attributes the job for quota accounting (default "default").
	Tenant string `json:"tenant,omitempty"`
	// IdempotencyKey makes submission retry-safe: a resubmit with the same
	// (tenant, key) pair returns the existing job instead of enqueueing a
	// duplicate.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// decodeJobSpec reads one JSON job spec the way POST /v1/jobs does:
// unknown fields are an error. It does not validate the spec.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// Validate rejects specs the workers could not execute.
func (s *JobSpec) Validate() error {
	if s.System == "" && len(s.SystemJSON) == 0 {
		return fmt.Errorf("spec needs system (one of %v) or system_json", tap25d.BuiltinSystemNames())
	}
	if s.System != "" && len(s.SystemJSON) != 0 {
		return fmt.Errorf("spec sets both system and system_json; pick one")
	}
	if _, err := s.LoadSystem(); err != nil {
		return err
	}
	for _, f := range []struct {
		name     string
		val, max int
	}{
		{"thermal_grid", s.ThermalGrid, maxThermalGrid},
		{"steps", s.Steps, maxSteps},
		{"runs", s.Runs, maxRuns},
		{"compact_steps", s.CompactSteps, maxSteps},
	} {
		if f.val < 0 || f.val > f.max {
			return fmt.Errorf("%s is %d; want 0 (the default) to %d", f.name, f.val, f.max)
		}
	}
	if len(s.PowerScenarios) > maxPowerScenarios {
		return fmt.Errorf("power_scenarios: %d corners exceeds the limit of %d", len(s.PowerScenarios), maxPowerScenarios)
	}
	for c, f := range s.PowerScenarios {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("power_scenarios[%d] is %v; want a finite non-negative scale factor", c, f)
		}
	}
	return nil
}

// Per-job size limits. maxPowerScenarios bounds the power-corner sweep,
// whose temperature maps are held in memory at once. maxThermalGrid is the
// largest grid any benchmark solves (a grid-256 model holds 5.2·10⁵
// unknowns, and memory grows with the grid's square). maxRuns bounds the
// best-of fan-out, whose runs each hold a model while they run, and
// maxSteps the annealing and Compact-2.5D step budgets, which set a job's
// run time.
const (
	maxPowerScenarios = 64
	maxThermalGrid    = 256
	maxRuns           = 64
	maxSteps          = 1_000_000
)

// LoadSystem materializes the spec's system description.
func (s *JobSpec) LoadSystem() (*tap25d.System, error) {
	if s.System != "" {
		return tap25d.BuiltinSystem(s.System)
	}
	sys, err := tap25d.LoadSystem(bytes.NewReader(s.SystemJSON))
	if err != nil {
		return nil, fmt.Errorf("system_json: %w", err)
	}
	return sys, nil
}

// tenant returns the quota-accounting tenant, defaulted.
func (s *JobSpec) tenant() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// JobResult is the subset of tap25d.Result persisted with a completed job.
type JobResult struct {
	Placement    tap25d.Placement `json:"placement"`
	PeakC        float64          `json:"peak_c"`
	WirelengthMM float64          `json:"wirelength_mm"`
	Feasible     bool             `json:"feasible"`
	// InitialPeakC and InitialWirelengthMM describe the Compact-2.5D starting
	// point, for before/after comparisons.
	InitialPeakC        float64 `json:"initial_peak_c"`
	InitialWirelengthMM float64 `json:"initial_wirelength_mm"`
	// Metrics aggregates the flow's evaluation counters.
	Metrics tap25d.EvalCounters `json:"metrics"`
	// ScenarioPeaksC holds the peak temperature of the final placement under
	// each requested power corner (same order as JobSpec.PowerScenarios;
	// absent when no corners were requested).
	ScenarioPeaksC []float64 `json:"scenario_peaks_c,omitempty"`
}

// Job is one queued, running or finished placement job. It is both the
// persisted record (sealed under jobFormat) and the API representation.
type Job struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State string  `json:"state"`
	// TraceID correlates every telemetry span of the job — from the HTTP
	// submit through the worker's SA steps down to the CG solves — and names
	// the records of the job's durable trace file (GET /v1/jobs/{id}/trace).
	TraceID string `json:"trace_id,omitempty"`
	// Seq is the submission sequence number; within one priority the queue is
	// FIFO by Seq.
	Seq int64 `json:"seq"`
	// Attempts counts executions started, including ones cut short by a drain
	// or crash; a resumed job continues its annealing state, so attempts > 1
	// does not mean work was repeated.
	Attempts int `json:"attempts"`
	// Epoch is the job's fencing token: it increases on every claim and every
	// reclaim, and a worker holding a lease under an older epoch is stale —
	// its checkpoint and record writes are rejected (see lease.go).
	Epoch int64 `json:"epoch,omitempty"`
	// WorkerID names the worker currently (or last) running the job.
	WorkerID string `json:"worker_id,omitempty"`
	// Retries counts scavenger reclamations of this job (expired lease after
	// a worker crash or wedge). A graceful drain requeue is not a retry.
	// Beyond the retry budget the job fails terminally.
	Retries int `json:"retries,omitempty"`
	// NotBefore gates re-dispatch of a reclaimed job: workers do not claim it
	// until this instant (exponential backoff in the reclaim count).
	NotBefore *time.Time `json:"not_before,omitempty"`
	// Resumed reports that at least one annealing run of the latest attempt
	// continued from a checkpoint rather than starting fresh.
	Resumed bool `json:"resumed,omitempty"`
	// Timestamps of the lifecycle edges (RFC 3339; StartedAt and FinishedAt
	// are omitted until reached).
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// Error carries the failure of a failed job.
	Error string `json:"error,omitempty"`
	// Result is set on done jobs (and on canceled jobs that had found a
	// feasible best-so-far before the cancel).
	Result *JobResult `json:"result,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j *Job) Terminal() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCanceled
}

// clone deep-copies the record so callers can hold it outside the queue lock.
func (j *Job) clone() *Job {
	c := *j
	if j.Result != nil {
		r := *j.Result
		c.Result = &r
	}
	if j.StartedAt != nil {
		t := *j.StartedAt
		c.StartedAt = &t
	}
	if j.FinishedAt != nil {
		t := *j.FinishedAt
		c.FinishedAt = &t
	}
	if j.NotBefore != nil {
		t := *j.NotBefore
		c.NotBefore = &t
	}
	return &c
}

// claimable reports whether a worker may claim the job now: queued, and past
// any reclaim backoff gate.
func (j *Job) claimable(now time.Time) bool {
	return j.State == StateQueued && (j.NotBefore == nil || !now.Before(*j.NotBefore))
}

// newJobID mints a collision-resistant job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the clock so
		// the service still limps along rather than panicking.
		return fmt.Sprintf("job-t%x", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(b[:])
}

// newTraceID mints the run/trace identifier propagated through every span of
// a job's execution.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("tr-t%x", time.Now().UnixNano())
	}
	return "tr-" + hex.EncodeToString(b[:])
}
