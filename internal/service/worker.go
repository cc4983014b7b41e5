package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tap25d"
	"tap25d/internal/metrics"
)

// WorkerConfig parameterizes one job worker — either a goroutine of the
// server's in-process pool or a standalone cmd/tap25d-worker process attached
// to the same data directory. The zero value of every optional field is a
// sensible default; DataDir is required for standalone construction.
type WorkerConfig struct {
	// DataDir is the shared service state root (the server's -data).
	DataDir string
	// ID names this worker in leases, job records and logs. Default
	// "worker-<hostname>-<pid>" (standalone) — in-process pools add a slot
	// suffix.
	ID string
	// LeaseTTL is the job-lease heartbeat deadline (default 10s): a worker
	// that fails to renew for this long is presumed dead and its job is
	// reclaimed. Smaller recovers crashed jobs faster; larger tolerates
	// longer worker stalls.
	LeaseTTL time.Duration
	// Poll is the queue-directory rescan cadence for discovering jobs
	// submitted by other processes (default 500ms). Local submissions wake
	// workers immediately regardless.
	Poll time.Duration
	// ScavengeEvery rate-limits this worker's expired-lease sweeps
	// (default LeaseTTL).
	ScavengeEvery time.Duration
	// RetryBudget is the number of crash reclamations a job survives before
	// it fails terminally (default 3; negative means no retries).
	RetryBudget int
	// RetryBackoff is the re-dispatch delay after the first reclamation,
	// doubling per reclamation (default 1s) up to RetryBackoffMax
	// (default 60s).
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// CheckpointEvery and ProgressEvery mirror the server's flags: the
	// per-run checkpoint cadence (default 25) and the step-event cadence
	// (default 10).
	CheckpointEvery int
	ProgressEvery   int
	// Observer, when non-nil, aggregates this worker's counters, gauges and
	// spans. nil disables observability.
	Observer *tap25d.Observer
	// Logger receives structured job-lifecycle logs. nil discards them.
	Logger *slog.Logger
}

func (c WorkerConfig) id() string {
	if c.ID != "" {
		return c.ID
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "local"
	}
	return fmt.Sprintf("worker-%s-%d", host, os.Getpid())
}

func (c WorkerConfig) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 10 * time.Second
}

func (c WorkerConfig) poll() time.Duration {
	if c.Poll > 0 {
		return c.Poll
	}
	return 500 * time.Millisecond
}

func (c WorkerConfig) scavengeEvery() time.Duration {
	if c.ScavengeEvery > 0 {
		return c.ScavengeEvery
	}
	return c.leaseTTL()
}

func (c WorkerConfig) retryBudget() int {
	if c.RetryBudget > 0 {
		return c.RetryBudget
	}
	if c.RetryBudget < 0 {
		return 0
	}
	return 3
}

func (c WorkerConfig) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return time.Second
}

func (c WorkerConfig) retryBackoffMax() time.Duration {
	if c.RetryBackoffMax > 0 {
		return c.RetryBackoffMax
	}
	return time.Minute
}

func (c WorkerConfig) checkpointEvery() int {
	if c.CheckpointEvery > 0 {
		return c.CheckpointEvery
	}
	return 25
}

func (c WorkerConfig) progressEvery() int {
	if c.ProgressEvery > 0 {
		return c.ProgressEvery
	}
	return 10
}

// workerHooks let the server graft its process-local concerns (SSE hub,
// trace sinks, cancel registry, gauges) onto the shared claim/execute/
// finalize engine. Every hook is optional; a standalone worker runs with the
// zero value.
type workerHooks struct {
	// execContext wraps the job context before execution (trace attachment,
	// root span); the returned func runs when execution ends.
	execContext func(ctx context.Context, j *Job) (context.Context, func())
	// progress receives every RunEvent of a running job (hub fan-out).
	progress func(jobID string, e tap25d.RunEvent)
	// onClaim runs after a successful claim, with the attempt's cancel func
	// (the server's DELETE handler uses it for prompt local cancellation).
	onClaim func(j *Job, cancel context.CancelFunc)
	// onDone runs after every attempt, terminal or not (busy bookkeeping).
	onDone func(j *Job)
	// onFinal runs when this worker drove the job to a terminal state.
	onFinal func(j *Job)
	// count sinks counter deltas (the server merges them into its totals).
	count func(f func(c *metrics.Counters))
}

// Worker drains one shared job directory through the lease protocol: claim
// by exclusive lease create, renew on a heartbeat, execute with fenced
// checkpoint writes, finalize only while still holding the lease. Any number
// of Workers — across any number of processes — can attach to one data
// directory. Construct with NewWorker and call Run.
type Worker struct {
	cfg      WorkerConfig
	queue    *queue
	sc       *scavenger
	hooks    workerHooks
	obs      *tap25d.Observer
	log      *slog.Logger
	dataDir  string
	leaseDir string

	countMu  sync.Mutex
	counters metrics.Counters
}

// NewWorker opens cfg.DataDir and returns a standalone worker attached to
// it. The directory layout is the server's: job records under jobs/, leases
// under leases/, per-job checkpoints under ckpt/.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: WorkerConfig.DataDir is required")
	}
	q, err := newQueue(filepath.Join(cfg.DataDir, "jobs"), 0)
	if err != nil {
		return nil, err
	}
	return newWorkerWith(cfg, q, workerHooks{}), nil
}

// newWorkerWith attaches a worker to an existing queue (the server's pool
// shares one) with the given hooks.
func newWorkerWith(cfg WorkerConfig, q *queue, hooks workerHooks) *Worker {
	w := &Worker{
		cfg:      cfg,
		queue:    q,
		hooks:    hooks,
		obs:      cfg.Observer,
		log:      cfg.Logger,
		dataDir:  cfg.DataDir,
		leaseDir: filepath.Join(cfg.DataDir, "leases"),
	}
	if w.log == nil {
		w.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	w.sc = &scavenger{
		queue:    q,
		leaseDir: w.leaseDir,
		workerID: cfg.id(),
		ttl:      cfg.leaseTTL(),
		budget:   cfg.retryBudget(),
		backoff:  cfg.retryBackoff(),
		backoffM: cfg.retryBackoffMax(),
		obs:      w.obs,
		log:      w.log,
		count:    w.count,
		publish:  hooks.progress,
		onFinal:  hooks.onFinal,
	}
	return w
}

// count routes a counter delta to the hook sink (the server) or, standalone,
// into this worker's own totals and observer.
func (w *Worker) count(f func(c *metrics.Counters)) {
	if w.hooks.count != nil {
		w.hooks.count(f)
		return
	}
	var delta metrics.Counters
	f(&delta)
	w.countMu.Lock()
	w.counters.Merge(delta)
	w.countMu.Unlock()
	w.obs.AbsorbCounters(delta)
}

// Counters returns a snapshot of a standalone worker's counters (a worker
// wired into a server contributes to the server's totals instead).
func (w *Worker) Counters() metrics.Counters {
	w.countMu.Lock()
	defer w.countMu.Unlock()
	return w.counters
}

// ckptDir is the job's private checkpoint directory.
func (w *Worker) ckptDir(id string) string {
	return filepath.Join(w.dataDir, "ckpt", id)
}

// Run drains the queue until ctx is canceled: scavenge expired leases, claim
// the best available job, execute it, repeat; block on the queue's wake
// channel (local submissions), the poll ticker (cross-process discovery) and
// the earliest backoff gate when idle. Cancellation is a graceful drain — a
// running job checkpoints, goes back to queued without a retry penalty, and
// its lease is released — so SIGTERM never costs a retry. Run returns nil
// on drain.
func (w *Worker) Run(ctx context.Context) error {
	poll := time.NewTicker(w.cfg.poll())
	defer poll.Stop()
	for {
		if ctx.Err() != nil {
			return nil
		}
		w.sc.maybeSweep(time.Now(), w.cfg.scavengeEvery())
		if claimed := w.tryClaim(time.Now()); claimed != nil {
			w.runLeased(ctx, claimed.job, claimed.lease)
			continue
		}
		// Idle: wake on a local submission, the next poll, or the earliest
		// reclaim backoff gate — whichever is first.
		var gateC <-chan time.Time
		var gateT *time.Timer
		if gate, ok := w.queue.nextGate(time.Now()); ok {
			gateT = time.NewTimer(time.Until(gate) + time.Millisecond)
			gateC = gateT.C
		}
		select {
		case <-ctx.Done():
			if gateT != nil {
				gateT.Stop()
			}
			return nil
		case <-w.queue.notify:
		case <-gateC:
		case <-poll.C:
			w.queue.rescan()
		}
		if gateT != nil {
			gateT.Stop()
		}
	}
}

// claimed pairs a job snapshot with the lease protecting it.
type claimed struct {
	job   *Job
	lease *lease
}

// tryClaim walks the claimable jobs best-first and attempts to take one:
// acquire the lease at epoch+1, then re-verify the record from disk and mark
// it running. A job whose lease is held, whose record moved on, or whose
// cancellation marker appeared is skipped (the marker finalizes it as
// canceled right here — no point dispatching work the user already killed).
func (w *Worker) tryClaim(now time.Time) *claimed {
	for _, cand := range w.queue.claimable(now) {
		epoch := cand.Epoch + 1
		l, err := acquireLease(w.leaseDir, cand.ID, w.cfg.id(), epoch, w.cfg.leaseTTL(), now)
		if err != nil {
			if !errors.Is(err, ErrLeaseHeld) {
				w.log.Warn("lease acquire failed", "job_id", cand.ID, "error", err)
			}
			continue
		}
		if w.queue.cancelRequested(cand.ID) {
			w.finalizeCanceledBeforeRun(cand, epoch, l)
			continue
		}
		j, err := w.queue.markRunning(cand.ID, w.cfg.id(), epoch, now)
		if err != nil {
			releaseLease(w.leaseDir, l)
			if !errors.Is(err, errNotClaimable) {
				w.log.Warn("claim persist failed", "job_id", cand.ID, "error", err)
			}
			continue
		}
		w.count(func(c *metrics.Counters) { c.JobsLeasesAcquired++ })
		return &claimed{job: j, lease: l}
	}
	return nil
}

// finalizeCanceledBeforeRun retires a queued job whose durable cancel marker
// was written before any worker picked it up.
func (w *Worker) finalizeCanceledBeforeRun(j *Job, epoch int64, l *lease) {
	final, err := w.queue.update(j.ID, func(rec *Job) {
		rec.State = StateCanceled
		rec.Epoch = epoch
		at := time.Now().UTC()
		rec.FinishedAt = &at
	})
	releaseLease(w.leaseDir, l)
	if err != nil {
		w.obs.Add("service_persist_errors", 1)
		return
	}
	w.queue.clearCancel(j.ID)
	w.count(func(c *metrics.Counters) { c.JobsCanceled++ })
	if w.hooks.onFinal != nil {
		w.hooks.onFinal(final)
	}
	w.log.Info("job canceled before dispatch", "job_id", j.ID, "tenant", j.Spec.tenant())
}

// runLeased executes one claimed job attempt under its lease: heartbeat
// renewals keep the claim alive, every checkpoint write re-verifies the
// fencing epoch, and the final record write happens only while the lease
// still names this worker. A lease lost mid-attempt abandons the attempt
// without writing anything — the reclaiming peer owns the job now.
func (w *Worker) runLeased(ctx context.Context, job *Job, l *lease) {
	jobCtx, cancelJob := context.WithCancel(ctx)
	defer cancelJob()
	guard := newLeaseGuard(w.leaseDir, l)

	if w.hooks.onClaim != nil {
		w.hooks.onClaim(job, cancelJob)
	}
	if w.hooks.onDone != nil {
		defer func() { w.hooks.onDone(job) }()
	}
	start := time.Now()
	w.obs.ObserveNamed("job_queue_wait", start.Sub(job.SubmittedAt))
	w.log.Info("job started",
		"job_id", job.ID, "tenant", job.Spec.tenant(), "trace", job.TraceID,
		"worker", w.cfg.id(), "epoch", job.Epoch, "attempt", job.Attempts)

	// Lease renewal: renew every LeaseTTL/3, comfortably inside the TTL,
	// and surface cross-process cancellation (the durable marker) into the
	// job context. A renewal that reports the lease lost cuts the context —
	// the placer checkpoints and unwinds, and finalize skips all writes.
	var userCanceled atomic.Bool
	hbCtx, stopHB := context.WithCancel(context.Background())
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(w.cfg.leaseTTL() / 3)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case now := <-t.C:
				if !userCanceled.Load() && w.queue.cancelRequested(job.ID) {
					userCanceled.Store(true)
					cancelJob()
				}
				if err := guard.renew(w.cfg.leaseTTL(), now); err != nil {
					if errors.Is(err, ErrLeaseLost) {
						w.log.Warn("job lease lost at heartbeat",
							"job_id", job.ID, "worker", w.cfg.id(), "error", err)
						cancelJob()
						return
					}
					// Transient I/O trouble: keep heartbeating; the lease
					// only dies if renewals keep failing past the TTL.
					w.log.Warn("lease renewal failed",
						"job_id", job.ID, "worker", w.cfg.id(), "error", err)
				}
			}
		}
	}()

	execCtx := jobCtx
	endSpan := func() {}
	if w.hooks.execContext != nil {
		execCtx, endSpan = w.hooks.execContext(jobCtx, job)
	}
	res, peaks, resumed, runErr := w.execute(execCtx, job, guard)
	endSpan()
	stopHB()
	<-hbDone

	w.finalize(job, guard, res, peaks, resumed, runErr,
		userCanceled.Load() || w.queue.cancelRequested(job.ID), start)
}

// execute runs the placement flow of one attempt. Checkpoint writes are
// fenced: each one re-reads the lease and fails with ErrLeaseLost if the
// epoch moved, so a stale worker stops contaminating the checkpoint
// directory within one write of losing the job.
func (w *Worker) execute(ctx context.Context, job *Job, guard *leaseGuard) (*tap25d.Result, []float64, bool, error) {
	sys, err := job.Spec.LoadSystem()
	if err != nil {
		return nil, nil, false, err
	}
	store := &tap25d.CheckpointStore{Dir: w.ckptDir(job.ID), Obs: w.obs}
	var resumedMu sync.Mutex
	resumed := false
	progress := func(e tap25d.RunEvent) {
		if e.Kind == tap25d.EventResume {
			resumedMu.Lock()
			resumed = true
			resumedMu.Unlock()
		}
		if w.hooks.progress != nil {
			w.hooks.progress(job.ID, e)
		}
	}
	res, err := tap25d.Place(sys, tap25d.Options{
		ThermalGrid:     job.Spec.ThermalGrid,
		Steps:           job.Spec.Steps,
		Runs:            job.Spec.Runs,
		CompactSteps:    job.Spec.CompactSteps,
		Seed:            job.Spec.Seed,
		GasStation:      job.Spec.GasStation,
		Surrogate:       !job.Spec.NoSurrogate,
		Context:         ctx,
		Progress:        progress,
		ProgressEvery:   w.cfg.progressEvery(),
		CheckpointEvery: w.cfg.checkpointEvery(),
		Checkpoint: func(cp *tap25d.RunCheckpoint) error {
			if err := guard.check(); err != nil {
				return err
			}
			return store.Checkpoint(cp)
		},
		Restore:  store.Restore,
		Observer: w.obs,
	})
	resumedMu.Lock()
	defer resumedMu.Unlock()
	var peaks []float64
	if err == nil && res != nil && len(job.Spec.PowerScenarios) > 0 {
		if peaks, err = w.scenarioPeaks(ctx, sys, job, res.Placement); err != nil {
			err = fmt.Errorf("power scenario sweep: %w", err)
		}
	}
	return res, peaks, resumed, err
}

// scenarioPeaks re-evaluates a finished placement under the job's requested
// power corners, one thermal solve at nominal power scaled per corner, and
// returns the peak temperature of each corner.
func (w *Worker) scenarioPeaks(ctx context.Context, sys *tap25d.System, job *Job, p tap25d.Placement) ([]float64, error) {
	results, err := tap25d.EvaluateScenarios(sys, p, job.Spec.PowerScenarios, tap25d.Options{
		ThermalGrid: job.Spec.ThermalGrid,
		Context:     ctx,
		Observer:    w.obs,
	})
	if err != nil {
		return nil, err
	}
	peaks := make([]float64, len(results))
	for c, r := range results {
		peaks[c] = r.PeakC
	}
	return peaks, nil
}

// finalize persists the attempt's outcome — but only if this worker still
// holds the lease. The record write happens before the lease release, so at
// every instant either the record is final or a lease (or its expiry)
// explains who owns the job.
func (w *Worker) finalize(job *Job, guard *leaseGuard, res *tap25d.Result, peaks []float64, resumed bool, runErr error, userCanceled bool, start time.Time) {
	if guard.isLost() || (runErr != nil && errors.Is(runErr, ErrLeaseLost)) {
		w.abandon(job, runErr)
		return
	}
	// The synchronous fencing check: between the last heartbeat and now the
	// job may have been reclaimed. Verify before writing anything.
	if err := guard.check(); err != nil {
		w.abandon(job, err)
		return
	}

	now := time.Now()
	finished := now.UTC()
	interrupted := runErr != nil && errors.Is(runErr, context.Canceled)
	final, err := w.queue.update(job.ID, func(j *Job) {
		j.Resumed = resumed
		j.WorkerID = w.cfg.id()
		switch {
		case interrupted && !userCanceled:
			// Graceful drain: hand the job back to the queue; its
			// checkpoints carry the annealing state into the next claim.
			// No retry penalty and no backoff — this is not a crash.
			j.State = StateQueued
			j.StartedAt = nil
			j.WorkerID = ""
		case interrupted && userCanceled:
			j.State = StateCanceled
			j.FinishedAt = &finished
			j.Result = jobResult(res, peaks)
		case runErr != nil:
			j.State = StateFailed
			j.FinishedAt = &finished
			j.Error = runErr.Error()
		default:
			j.State = StateDone
			j.FinishedAt = &finished
			j.Result = jobResult(res, peaks)
		}
	})
	if err != nil {
		// The record refused to persist (disk trouble). The lease stays in
		// place: the scavenger will reclaim and retry the job rather than
		// lose it.
		w.obs.Add("service_persist_errors", 1)
		w.log.Error("job record persist failed",
			"job_id", job.ID, "worker", w.cfg.id(), "error", err)
		return
	}
	if resumed {
		w.count(func(c *metrics.Counters) { c.JobsResumed++ })
	}
	if res != nil && res.Surrogate != nil {
		w.obs.SetGauge("surrogate_drift_rms_c", res.Surrogate.DriftRMSC)
	}
	if err := releaseLease(w.leaseDir, guard.lease); err == nil {
		w.count(func(c *metrics.Counters) { c.JobsLeasesReleased++ })
	}
	if final.Terminal() {
		switch final.State {
		case StateDone:
			w.count(func(c *metrics.Counters) { c.JobsCompleted++ })
		case StateFailed:
			w.count(func(c *metrics.Counters) { c.JobsFailed++ })
		case StateCanceled:
			w.count(func(c *metrics.Counters) { c.JobsCanceled++ })
		}
		w.obs.ObserveNamed("job_latency", now.Sub(job.SubmittedAt))
		os.RemoveAll(w.ckptDir(job.ID)) // spent snapshots
		w.queue.clearCancel(job.ID)
		if w.hooks.onFinal != nil {
			w.hooks.onFinal(final)
		}
		if final.State == StateFailed {
			w.log.Error("job failed",
				"job_id", job.ID, "tenant", job.Spec.tenant(), "trace", job.TraceID,
				"worker", w.cfg.id(), "error", final.Error)
		} else {
			w.log.Info("job finished",
				"job_id", job.ID, "tenant", job.Spec.tenant(), "trace", job.TraceID,
				"worker", w.cfg.id(), "state", final.State,
				"latency", now.Sub(job.SubmittedAt))
		}
	} else if final.State == StateQueued {
		w.log.Info("job interrupted, re-queued",
			"job_id", job.ID, "tenant", job.Spec.tenant(), "trace", job.TraceID,
			"worker", w.cfg.id())
	}
}

// abandon walks away from an attempt whose lease was lost: no record write,
// no checkpoint cleanup, no lease release — the reclaiming peer owns all of
// it now. The work already checkpointed under the old epoch is not wasted;
// the peer resumed from the last checkpoint that passed its fencing check.
func (w *Worker) abandon(job *Job, cause error) {
	w.count(func(c *metrics.Counters) { c.JobsLeasesLost++ })
	w.log.Warn("job attempt abandoned: lease lost",
		"job_id", job.ID, "tenant", job.Spec.tenant(), "trace", job.TraceID,
		"worker", w.cfg.id(), "error", cause)
}

// jobResult projects a tap25d.Result onto the persisted record (nil-safe).
func jobResult(res *tap25d.Result, scenarioPeaks []float64) *JobResult {
	if res == nil {
		return nil
	}
	return &JobResult{
		Placement:           res.Placement,
		PeakC:               res.PeakC,
		WirelengthMM:        res.WirelengthMM,
		Feasible:            res.Feasible,
		InitialPeakC:        res.InitialPeakC,
		InitialWirelengthMM: res.InitialWirelength,
		Metrics:             res.Metrics,
		ScenarioPeaksC:      scenarioPeaks,
	}
}
