// Package metrics defines the evaluation counters shared by the thermal
// solver, the router and the placer. The incremental thermal fast path
// (fixed-pattern CSR, delta rasterization) is only trustworthy when its
// savings are observable: these counters record how many solves ran, how many
// matrix assemblies were full rebuilds versus delta updates, and how many
// conjugate-gradient iterations were spent.
//
// A Counters value is not synchronized: each solver/evaluator owns its own
// instance, and concurrent annealing runs merge their counters only after
// their goroutines have been joined.
package metrics

import "fmt"

// Counters accumulates evaluation statistics along one placement flow.
//
// The JSON field names below are a stable schema: journal events,
// observability reports and the /metrics endpoint all render counters under
// these snake_case names, and docs/OPERATIONS.md documents them in the same
// declaration order that String uses.
type Counters struct {
	// Evaluations counts placement evaluations requested from an evaluator.
	Evaluations int64 `json:"evaluations"`
	// ThermalSolves counts steady-state thermal solves actually performed.
	ThermalSolves int64 `json:"thermal_solves"`
	// CGIterations sums conjugate-gradient iterations over all solves.
	CGIterations int64 `json:"cg_iterations"`
	// FullAssembles counts conductance-matrix value rebuilds over the whole
	// grid; DeltaAssembles counts in-place updates confined to the cells
	// whose chiplet-layer conductivity changed; SkippedAssembles counts
	// solves that reused the matrix untouched (identical source list).
	FullAssembles    int64 `json:"full_assembles"`
	DeltaAssembles   int64 `json:"delta_assembles"`
	SkippedAssembles int64 `json:"skipped_assembles"`
	// RouteCalls counts invocations of the inter-chiplet router.
	RouteCalls int64 `json:"route_calls"`
	// Checkpoints counts annealing-state snapshots written by the placer's
	// run orchestration; Resumes counts runs continued from such a snapshot.
	Checkpoints int64 `json:"checkpoints"`
	Resumes     int64 `json:"resumes"`
	// CGRetries counts recovery-ladder cold restarts after a CG
	// non-convergence (warm state discarded, solve retried from a uniform
	// initial guess).
	CGRetries int64 `json:"cg_retries"`
	// CGFallbackPrecond counts escalations to the multigrid-preconditioned
	// CG fallback after a cold restart also failed to converge. Only
	// models forced onto the Jacobi preconditioner take that rung.
	CGFallbackPrecond int64 `json:"cg_fallback_precond"`
	// StepEvalSkipped counts annealing steps abandoned after a transient
	// evaluation failure (under Options.EvalFailureBudget) instead of
	// aborting the run.
	StepEvalSkipped int64 `json:"step_eval_skipped"`
	// CkptWriteRetries counts checkpoint write attempts retried after a
	// transient I/O error.
	CkptWriteRetries int64 `json:"ckpt_write_retries"`
	// ResumeFallbacks counts resumes that fell back to the previous
	// checkpoint generation because the newest file was corrupt or missing.
	ResumeFallbacks int64 `json:"resume_fallbacks"`
	// SurrogatePrescreens counts SA candidates scored by the analytical
	// thermal surrogate before (possibly instead of) the exact solver;
	// SurrogateRejects counts the prescreens that declined the move without
	// paying the exact solve.
	SurrogatePrescreens int64 `json:"surrogate_prescreens"`
	SurrogateRejects    int64 `json:"surrogate_rejects"`
	// SurrogateAudits counts prescreen-rejected candidates re-scored exactly
	// to measure surrogate drift; SurrogateRefits counts audits whose error
	// breached the bound and forced a spread-length refit.
	SurrogateAudits int64 `json:"surrogate_audits"`
	SurrogateRefits int64 `json:"surrogate_refits"`
	// MGCycles counts multigrid V-cycles applied as CG preconditioner passes;
	// MGSetups counts hierarchy (re)coarsenings — the initial Galerkin build
	// and every periodic numeric refresh. Both carry omitempty, so counters
	// that never saw a V-cycle serialize as they did before multigrid
	// existed.
	MGCycles int64 `json:"mg_cycles,omitempty"`
	MGSetups int64 `json:"mg_setups,omitempty"`

	// Service-level job counters (internal/service). They carry omitempty so
	// the per-run journal events of a plain CLI flow — where no job queue
	// exists — serialize exactly as they did before the service landed.

	// JobsSubmitted counts placement jobs accepted into the service queue
	// (deduplicated resubmits are counted by JobsDeduped instead).
	JobsSubmitted int64 `json:"jobs_submitted,omitempty"`
	// JobsCompleted, JobsFailed and JobsCanceled split terminal job states.
	JobsCompleted int64 `json:"jobs_completed,omitempty"`
	JobsFailed    int64 `json:"jobs_failed,omitempty"`
	JobsCanceled  int64 `json:"jobs_canceled,omitempty"`
	// JobsResumed counts jobs that continued from a mid-run checkpoint after
	// a server drain or restart instead of starting fresh.
	JobsResumed int64 `json:"jobs_resumed,omitempty"`
	// JobsQuotaRejected counts submissions refused with 429 because the
	// tenant's active-job quota was exhausted.
	JobsQuotaRejected int64 `json:"jobs_quota_rejected,omitempty"`
	// JobsDeduped counts submissions answered with an existing job because
	// the (tenant, idempotency key) pair was already known.
	JobsDeduped int64 `json:"jobs_deduped,omitempty"`
	// JobsEventsDropped counts SSE events dropped on slow subscribers
	// instead of blocking the placement worker.
	JobsEventsDropped int64 `json:"jobs_events_dropped,omitempty"`
	// JobsLeasesAcquired and JobsLeasesReleased count job-lease lifecycle
	// edges of the multi-process worker protocol: a worker acquires a lease
	// when it claims a job and releases it when the attempt finalizes.
	JobsLeasesAcquired int64 `json:"jobs_leases_acquired,omitempty"`
	JobsLeasesReleased int64 `json:"jobs_leases_released,omitempty"`
	// JobsLeasesLost counts attempts abandoned because the worker's lease
	// expired or its fencing epoch was superseded mid-run (the job was
	// reclaimed out from under it; the stale worker's writes were rejected).
	JobsLeasesLost int64 `json:"jobs_leases_lost,omitempty"`
	// JobsReclaims counts expired or orphaned running jobs a scavenger took
	// back with an incremented fencing epoch.
	JobsReclaims int64 `json:"jobs_reclaims,omitempty"`
	// JobsRetries counts reclaimed jobs re-queued under their retry budget
	// (a reclaim that exhausts the budget lands in jobs_failed instead).
	JobsRetries int64 `json:"jobs_retries,omitempty"`
	// JobsShed counts submissions refused with 503 by the admission
	// load-shedding threshold (queue depth over Config.MaxQueueDepth).
	JobsShed int64 `json:"jobs_shed,omitempty"`
}

// Each calls f with every counter's stable snake_case JSON name and value, in
// declaration order. It is the single enumeration the Prometheus exporter and
// the documentation lint share, so a field added here is automatically
// exported and automatically required to be documented.
func (c Counters) Each(f func(name string, v int64)) {
	f("evaluations", c.Evaluations)
	f("thermal_solves", c.ThermalSolves)
	f("cg_iterations", c.CGIterations)
	f("full_assembles", c.FullAssembles)
	f("delta_assembles", c.DeltaAssembles)
	f("skipped_assembles", c.SkippedAssembles)
	f("route_calls", c.RouteCalls)
	f("checkpoints", c.Checkpoints)
	f("resumes", c.Resumes)
	f("cg_retries", c.CGRetries)
	f("cg_fallback_precond", c.CGFallbackPrecond)
	f("step_eval_skipped", c.StepEvalSkipped)
	f("ckpt_write_retries", c.CkptWriteRetries)
	f("resume_fallbacks", c.ResumeFallbacks)
	f("surrogate_prescreens", c.SurrogatePrescreens)
	f("surrogate_rejects", c.SurrogateRejects)
	f("surrogate_audits", c.SurrogateAudits)
	f("surrogate_refits", c.SurrogateRefits)
	f("mg_cycles", c.MGCycles)
	f("mg_setups", c.MGSetups)
	f("jobs_submitted", c.JobsSubmitted)
	f("jobs_completed", c.JobsCompleted)
	f("jobs_failed", c.JobsFailed)
	f("jobs_canceled", c.JobsCanceled)
	f("jobs_resumed", c.JobsResumed)
	f("jobs_quota_rejected", c.JobsQuotaRejected)
	f("jobs_deduped", c.JobsDeduped)
	f("jobs_events_dropped", c.JobsEventsDropped)
	f("jobs_leases_acquired", c.JobsLeasesAcquired)
	f("jobs_leases_released", c.JobsLeasesReleased)
	f("jobs_leases_lost", c.JobsLeasesLost)
	f("jobs_reclaims", c.JobsReclaims)
	f("jobs_retries", c.JobsRetries)
	f("jobs_shed", c.JobsShed)
}

// Merge adds o into c.
func (c *Counters) Merge(o Counters) {
	c.Evaluations += o.Evaluations
	c.ThermalSolves += o.ThermalSolves
	c.CGIterations += o.CGIterations
	c.FullAssembles += o.FullAssembles
	c.DeltaAssembles += o.DeltaAssembles
	c.SkippedAssembles += o.SkippedAssembles
	c.RouteCalls += o.RouteCalls
	c.Checkpoints += o.Checkpoints
	c.Resumes += o.Resumes
	c.CGRetries += o.CGRetries
	c.CGFallbackPrecond += o.CGFallbackPrecond
	c.StepEvalSkipped += o.StepEvalSkipped
	c.CkptWriteRetries += o.CkptWriteRetries
	c.ResumeFallbacks += o.ResumeFallbacks
	c.SurrogatePrescreens += o.SurrogatePrescreens
	c.SurrogateRejects += o.SurrogateRejects
	c.SurrogateAudits += o.SurrogateAudits
	c.SurrogateRefits += o.SurrogateRefits
	c.MGCycles += o.MGCycles
	c.MGSetups += o.MGSetups
	c.JobsSubmitted += o.JobsSubmitted
	c.JobsCompleted += o.JobsCompleted
	c.JobsFailed += o.JobsFailed
	c.JobsCanceled += o.JobsCanceled
	c.JobsResumed += o.JobsResumed
	c.JobsQuotaRejected += o.JobsQuotaRejected
	c.JobsDeduped += o.JobsDeduped
	c.JobsEventsDropped += o.JobsEventsDropped
	c.JobsLeasesAcquired += o.JobsLeasesAcquired
	c.JobsLeasesReleased += o.JobsLeasesReleased
	c.JobsLeasesLost += o.JobsLeasesLost
	c.JobsReclaims += o.JobsReclaims
	c.JobsRetries += o.JobsRetries
	c.JobsShed += o.JobsShed
}

// IsZero reports whether no counter has been incremented.
func (c Counters) IsZero() bool {
	return c == Counters{}
}

// String renders the counters as a compact single-line summary. Every
// per-flow group appears, zero or not, in the struct's declaration order, so
// lines from different runs and tools align and can be diffed or parsed
// column-wise. The multigrid and service-level jobs groups are the
// exceptions: they are appended only when non-zero, so flows that never touch
// them keep their historical line format.
func (c Counters) String() string {
	s := fmt.Sprintf("evals=%d solves=%d cg_iters=%d "+
		"assembles=%d/%d/%d (full/delta/skip) routes=%d ckpts=%d resumes=%d "+
		"recovery=%d/%d (cold/mg) skipped_steps=%d ckpt_retries=%d resume_fallbacks=%d "+
		"surrogate=%d/%d/%d/%d (prescreen/reject/audit/refit)",
		c.Evaluations, c.ThermalSolves, c.CGIterations,
		c.FullAssembles, c.DeltaAssembles, c.SkippedAssembles,
		c.RouteCalls, c.Checkpoints, c.Resumes,
		c.CGRetries, c.CGFallbackPrecond,
		c.StepEvalSkipped, c.CkptWriteRetries, c.ResumeFallbacks,
		c.SurrogatePrescreens, c.SurrogateRejects, c.SurrogateAudits, c.SurrogateRefits)
	if c.MGCycles != 0 || c.MGSetups != 0 {
		s += fmt.Sprintf(" mg=%d/%d (cycles/setups)", c.MGCycles, c.MGSetups)
	}
	if c.JobsSubmitted != 0 || c.JobsCompleted != 0 || c.JobsFailed != 0 ||
		c.JobsCanceled != 0 || c.JobsResumed != 0 ||
		c.JobsQuotaRejected != 0 || c.JobsDeduped != 0 || c.JobsEventsDropped != 0 {
		s += fmt.Sprintf(" jobs=%d/%d/%d/%d/%d (submit/done/fail/cancel/resume) "+
			"job_rejects=%d/%d (quota/dedup) events_dropped=%d",
			c.JobsSubmitted, c.JobsCompleted, c.JobsFailed, c.JobsCanceled, c.JobsResumed,
			c.JobsQuotaRejected, c.JobsDeduped, c.JobsEventsDropped)
	}
	if c.JobsLeasesAcquired != 0 || c.JobsLeasesReleased != 0 || c.JobsLeasesLost != 0 ||
		c.JobsReclaims != 0 || c.JobsRetries != 0 || c.JobsShed != 0 {
		s += fmt.Sprintf(" leases=%d/%d/%d (acquire/release/lost) "+
			"reclaims=%d retries=%d shed=%d",
			c.JobsLeasesAcquired, c.JobsLeasesReleased, c.JobsLeasesLost,
			c.JobsReclaims, c.JobsRetries, c.JobsShed)
	}
	return s
}
