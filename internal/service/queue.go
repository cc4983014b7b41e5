package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tap25d/internal/placer"
)

// Submission failure sentinels, mapped to HTTP statuses by the API layer.
var (
	// ErrQuotaExhausted rejects a submission whose tenant already has its full
	// quota of active (queued or running) jobs. HTTP 429.
	ErrQuotaExhausted = errors.New("service: tenant active-job quota exhausted")
	// ErrDraining rejects submissions while the server is shutting down.
	// HTTP 503.
	ErrDraining = errors.New("service: server is draining, not accepting jobs")
	// ErrNotFound marks lookups of unknown job IDs. HTTP 404.
	ErrNotFound = errors.New("service: no such job")
	// ErrTerminal rejects canceling a job that already finished. HTTP 409.
	ErrTerminal = errors.New("service: job already in a terminal state")
)

// queue is the persistent job queue: an in-memory index over one directory of
// sealed job records. All mutations go through the lock and are persisted
// before they are visible to other goroutines, so the on-disk state never
// lags what the API has acknowledged.
//
// The directory — not the memory — is the truth: several processes (the
// server plus any number of cmd/tap25d-worker processes) may hold a queue
// over the same directory at once. Cross-process mutual exclusion comes from
// the lease protocol (only the lease holder writes a running job's record;
// only a claim or a fenced reclaim transitions it), and staleness is healed
// by reload/rescan, which re-read records from disk before decisions and on
// a poll cadence.
type queue struct {
	dir   string // <data>/jobs
	quota int    // max active jobs per tenant; 0 = unlimited

	mu       sync.Mutex
	jobs     map[string]*Job
	byIdem   map[string]string // "tenant\x00key" → job ID
	nextSeq  int64
	draining bool
	notify   chan struct{} // buffered(1); poked on every enqueue
}

// newQueue opens (or creates) the queue directory and loads every surviving
// job record. Jobs found in StateRunning are left running: they may be live
// under another process's lease, so recovery is the scavenger's decision
// (reclaim after lease expiry), not load-time fiat.
func newQueue(dir string, quota int) (*queue, error) {
	q := &queue{
		dir:    dir,
		quota:  quota,
		jobs:   map[string]*Job{},
		byIdem: map[string]string{},
		notify: make(chan struct{}, 1),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := q.rescan(); err != nil {
		return nil, err
	}
	return q, nil
}

// rescan reconciles the in-memory index with the directory: new records are
// loaded, and known non-terminal records are re-read so transitions made by
// other processes (a worker finishing a job, a scavenger re-queueing one)
// become visible. Terminal records are immutable and not re-read.
func (q *queue) rescan() error {
	entries, err := os.ReadDir(q.dir)
	if err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		if known, ok := q.jobs[id]; ok {
			if !known.Terminal() {
				q.reloadLocked(id)
			}
			continue
		}
		var j Job
		path := filepath.Join(q.dir, name)
		if err := placer.ReadSealedFile(path, jobFormat, &j); err != nil {
			// A corrupt record is quarantined, not fatal: the queue must come
			// back up even if one record was torn by a dying disk.
			os.Rename(path, path+".corrupt")
			continue
		}
		q.jobs[j.ID] = &j
		if k := idemKey(&j.Spec); k != "" {
			q.byIdem[k] = j.ID
		}
		if j.Seq >= q.nextSeq {
			q.nextSeq = j.Seq + 1
		}
	}
	return nil
}

// reloadLocked re-reads one known record from disk, replacing the in-memory
// copy. Read failures leave the memory as-is (a torn read mid-rename on a
// non-atomic filesystem should not erase knowledge of the job).
func (q *queue) reloadLocked(id string) {
	var j Job
	if err := placer.ReadSealedFile(filepath.Join(q.dir, id+".json"), jobFormat, &j); err != nil {
		return
	}
	if j.ID != id {
		return
	}
	q.jobs[id] = &j
}

// reload re-reads one record from disk and returns the fresh snapshot.
func (q *queue) reload(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.jobs[id]; !ok {
		return nil, ErrNotFound
	}
	q.reloadLocked(id)
	return q.jobs[id].clone(), nil
}

// findIdem returns the existing job under the spec's idempotency key, if
// any. Used by the load-shedding gate: idempotent resubmissions of accepted
// jobs must keep succeeding even when the queue is full.
func (q *queue) findIdem(spec *JobSpec) (*Job, bool) {
	k := idemKey(spec)
	if k == "" {
		return nil, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if id, ok := q.byIdem[k]; ok {
		return q.jobs[id].clone(), true
	}
	return nil, false
}

func idemKey(s *JobSpec) string {
	if s.IdempotencyKey == "" {
		return ""
	}
	return s.tenant() + "\x00" + s.IdempotencyKey
}

// persistLocked seals the record to disk. Callers hold q.mu (or, during
// newQueue, have exclusive access).
func (q *queue) persistLocked(j *Job) error {
	return placer.WriteSealedFile(filepath.Join(q.dir, j.ID+".json"), jobFormat, j)
}

// Submit validates, deduplicates, quota-checks and enqueues a job. The bool
// reports whether the job is new (false: an existing job was returned under
// the spec's idempotency key).
func (q *queue) Submit(spec JobSpec, now time.Time) (*Job, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, false, ErrDraining
	}
	if k := idemKey(&spec); k != "" {
		if id, ok := q.byIdem[k]; ok {
			return q.jobs[id].clone(), false, nil
		}
	}
	if q.quota > 0 {
		active := 0
		for _, j := range q.jobs {
			if !j.Terminal() && j.Spec.tenant() == spec.tenant() {
				active++
			}
		}
		if active >= q.quota {
			return nil, false, fmt.Errorf("%w: tenant %q has %d active jobs (quota %d)",
				ErrQuotaExhausted, spec.tenant(), active, q.quota)
		}
	}
	j := &Job{
		ID:          newJobID(),
		Spec:        spec,
		State:       StateQueued,
		TraceID:     newTraceID(),
		Seq:         q.nextSeq,
		SubmittedAt: now.UTC(),
	}
	q.nextSeq++
	if err := q.persistLocked(j); err != nil {
		return nil, false, err
	}
	q.jobs[j.ID] = j
	if k := idemKey(&spec); k != "" {
		q.byIdem[k] = j.ID
	}
	q.poke()
	return j.clone(), true, nil
}

// poke wakes one waiting worker. The channel has capacity 1: a pending poke
// already guarantees every waiter will rescan, so drops are harmless.
func (q *queue) poke() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// claimable returns snapshots of every job a worker may claim now, best
// first: priority wins, ties go to the lowest sequence number (FIFO).
// Reclaimed jobs still inside their backoff gate are excluded.
func (q *queue) claimable(now time.Time) []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*Job
	for _, j := range q.jobs {
		if j.claimable(now) {
			out = append(out, j.clone())
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Spec.Priority != out[k].Spec.Priority {
			return out[i].Spec.Priority > out[k].Spec.Priority
		}
		return out[i].Seq < out[k].Seq
	})
	return out
}

// nextGate returns the earliest backoff gate among queued-but-gated jobs, so
// a worker can sleep exactly until the next reclaimed job becomes claimable.
func (q *queue) nextGate(now time.Time) (time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var gate time.Time
	found := false
	for _, j := range q.jobs {
		if j.State != StateQueued || j.NotBefore == nil || !now.Before(*j.NotBefore) {
			continue
		}
		if !found || j.NotBefore.Before(gate) {
			gate = *j.NotBefore
			found = true
		}
	}
	return gate, found
}

// errNotClaimable rejects a markRunning whose job was taken, canceled or
// gated between the claimable scan and the lease acquire. The claimer
// releases its lease and moves on.
var errNotClaimable = errors.New("service: job no longer claimable")

// markRunning transitions a claimable job to running under the claimer's
// lease epoch. The caller must already hold the job's lease (acquired at
// exactly this epoch); the record is re-read from disk first, so a
// transition made by another process since the claimable scan is respected.
func (q *queue) markRunning(id, workerID string, epoch int64, now time.Time) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.jobs[id]; !ok {
		return nil, ErrNotFound
	}
	q.reloadLocked(id)
	j := q.jobs[id]
	if !j.claimable(now) {
		return nil, fmt.Errorf("%w: %s is %s", errNotClaimable, id, j.State)
	}
	if epoch <= j.Epoch {
		// The claimer's lease was minted from a stale snapshot: a reclaim has
		// advanced the record's epoch past the claimed one. Honoring it would
		// hand the fencing token backwards.
		return nil, fmt.Errorf("%w: %s epoch %d is not past record epoch %d",
			errNotClaimable, id, epoch, j.Epoch)
	}
	j.State = StateRunning
	j.Attempts++
	j.Epoch = epoch
	j.WorkerID = workerID
	at := now.UTC()
	j.StartedAt = &at
	j.Resumed = false
	j.NotBefore = nil
	if err := q.persistLocked(j); err != nil {
		return nil, err
	}
	return j.clone(), nil
}

// Durable cancel markers. Cancellation must reach a worker in another
// process, so it cannot live in this process's memory: DELETE writes a
// marker file beside the job record, every worker checks it on claim and on
// each heartbeat, and the scavenger routes a reclaimed job with a marker to
// canceled instead of re-queueing it. The finalizing writer removes it.

func (q *queue) cancelMarkerPath(id string) string {
	return filepath.Join(q.dir, id+".cancel")
}

// markCancel durably records a cancellation request: the marker file and
// its directory entry are fsynced before it returns. Idempotent. A marker
// it cannot make durable is removed again and reported, so a retried
// request writes it anew instead of finding a marker the disk may lose.
func (q *queue) markCancel(id string) error {
	path := q.cancelMarkerPath(id)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil
		}
		return err
	}
	_, err = fmt.Fprintln(f, time.Now().UTC().Format(time.RFC3339Nano))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = placer.SyncDir(q.dir)
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// cancelRequested reports whether a durable cancellation marker exists.
func (q *queue) cancelRequested(id string) bool {
	_, err := os.Stat(q.cancelMarkerPath(id))
	return err == nil
}

// clearCancel removes the job's cancellation marker (terminal persist).
func (q *queue) clearCancel(id string) {
	os.Remove(q.cancelMarkerPath(id))
}

// update applies f to the job under the lock and persists the result.
func (q *queue) update(id string, f func(*Job)) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	f(j)
	if err := q.persistLocked(j); err != nil {
		return nil, err
	}
	if j.State == StateQueued {
		q.poke()
	}
	return j.clone(), nil
}

// Get returns a snapshot of one job. Non-terminal records are re-read from
// disk first, so progress made by workers in other processes is visible to
// the API without waiting for the rescan cadence.
func (q *queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if !j.Terminal() {
		q.reloadLocked(id)
		j = q.jobs[id]
	}
	return j.clone(), nil
}

// List returns snapshots of every job, newest submission first.
func (q *queue) List() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq > out[k].Seq })
	return out
}

// Depth returns the number of queued and running jobs.
func (q *queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, j := range q.jobs {
		switch j.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}

// CancelQueued transitions a still-queued job to canceled. It returns
// (nil, false, err) when the job is unknown; (job, false, nil) when the job
// is running or terminal (the caller must handle those states); and
// (job, true, nil) when the queued job was canceled here.
func (q *queue) CancelQueued(id string, now time.Time) (*Job, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false, ErrNotFound
	}
	if !j.Terminal() {
		q.reloadLocked(id)
		j = q.jobs[id]
	}
	if j.State != StateQueued {
		return j.clone(), false, nil
	}
	j.State = StateCanceled
	at := now.UTC()
	j.FinishedAt = &at
	if err := q.persistLocked(j); err != nil {
		return nil, false, err
	}
	return j.clone(), true, nil
}

// StartDrain stops intake: every Submit from now on fails with ErrDraining.
func (q *queue) StartDrain() {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
}

// Draining reports whether intake is stopped.
func (q *queue) Draining() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.draining
}
