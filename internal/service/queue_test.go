package service

import (
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tap25d/internal/metrics"
)

func testSpec(seed int64) JobSpec {
	return JobSpec{System: "multigpu", ThermalGrid: 16, Steps: 20, Runs: 1, CompactSteps: 400, Seed: seed}
}

// claimJob drives the worker-side claim protocol by hand: pick the best
// claimable job, take its lease at the next epoch, mark it running.
func claimJob(t *testing.T, q *queue, leaseDir, workerID string, at time.Time) (*Job, *lease) {
	t.Helper()
	cands := q.claimable(time.Now())
	if len(cands) == 0 {
		t.Fatal("no claimable jobs")
	}
	cand := cands[0]
	l, err := acquireLease(leaseDir, cand.ID, workerID, cand.Epoch+1, 10*time.Second, at)
	if err != nil {
		t.Fatalf("acquire lease: %v", err)
	}
	j, err := q.markRunning(cand.ID, workerID, l.Epoch, time.Now())
	if err != nil {
		t.Fatalf("markRunning: %v", err)
	}
	return j, l
}

func testScavenger(q *queue, leaseDir string) *scavenger {
	return &scavenger{
		queue:    q,
		leaseDir: leaseDir,
		workerID: "scav-test",
		ttl:      10 * time.Second,
		budget:   3,
		backoff:  50 * time.Millisecond,
		backoffM: time.Second,
		log:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		count:    func(func(c *metrics.Counters)) {},
	}
}

// TestQueuePersistAndReload covers the multi-process restart story: a job
// running under a lease stays running across a queue reload (it may be live
// in another process — recovery belongs to the scavenger, not load-time
// fiat), and a scavenger sweep reclaims it once the lease has expired.
func TestQueuePersistAndReload(t *testing.T) {
	dir := t.TempDir()
	leases := t.TempDir()
	q, err := newQueue(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, created, err := q.Submit(testSpec(1), time.Now())
	if err != nil || !created {
		t.Fatalf("submit a: created=%v err=%v", created, err)
	}
	b, _, err := q.Submit(testSpec(2), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// Dispatch a — with a lease acquired in the past, so it is already
	// expired when the "surviving" process sweeps below.
	got, _ := claimJob(t, q, leases, "w-dead", time.Now().Add(-time.Minute))
	if got.ID != a.ID {
		t.Fatalf("claimed %s, want FIFO head %s", got.ID, a.ID)
	}

	// "Restart": a new queue over the same directory. The running job is NOT
	// auto-requeued — its lease decides.
	q2, err := newQueue(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := q2.Get(a.ID)
	if err != nil || ja.State != StateRunning {
		t.Fatalf("running job after reload: %+v err=%v", ja, err)
	}
	jb, err := q2.Get(b.ID)
	if err != nil || jb.State != StateQueued {
		t.Fatalf("queued job after reload: %+v err=%v", jb, err)
	}

	// The scavenger finds the expired lease and reclaims under epoch 2.
	if n := testScavenger(q2, leases).sweep(time.Now()); n != 1 {
		t.Fatalf("sweep reclaimed %d jobs, want 1", n)
	}
	ja, err = q2.Get(a.ID)
	if err != nil || ja.State != StateQueued {
		t.Fatalf("reclaimed job: %+v err=%v", ja, err)
	}
	if ja.Epoch != 2 || ja.Retries != 1 || ja.Attempts != 1 {
		t.Fatalf("reclaimed job epoch=%d retries=%d attempts=%d, want 2/1/1",
			ja.Epoch, ja.Retries, ja.Attempts)
	}
	if ja.NotBefore == nil {
		t.Fatal("reclaimed job has no backoff gate")
	}
	if _, err := readLease(leases, a.ID); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease not removed after reclaim: %v", err)
	}
}

func TestQueuePriorityThenFIFO(t *testing.T) {
	q, err := newQueue(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	low1, _, _ := q.Submit(testSpec(1), time.Now())
	s := testSpec(2)
	s.Priority = 5
	high, _, _ := q.Submit(s, time.Now())
	low2, _, _ := q.Submit(testSpec(3), time.Now())

	cands := q.claimable(time.Now())
	if len(cands) != 3 {
		t.Fatalf("claimable returned %d jobs, want 3", len(cands))
	}
	order := []string{cands[0].ID, cands[1].ID, cands[2].ID}
	want := []string{high.ID, low1.ID, low2.ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestQueueBackoffGate covers the reclaim re-dispatch gate: a queued job
// whose NotBefore is in the future is invisible to claimable, nextGate
// reports when it opens, and it becomes claimable afterwards.
func TestQueueBackoffGate(t *testing.T) {
	q, err := newQueue(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := q.Submit(testSpec(1), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	gate := time.Now().Add(time.Hour).UTC()
	if _, err := q.update(j.ID, func(rec *Job) { rec.NotBefore = &gate }); err != nil {
		t.Fatal(err)
	}
	if cands := q.claimable(time.Now()); len(cands) != 0 {
		t.Fatalf("gated job is claimable: %+v", cands[0])
	}
	at, ok := q.nextGate(time.Now())
	if !ok || !at.Equal(gate) {
		t.Fatalf("nextGate = %v ok=%v, want %v", at, ok, gate)
	}
	if cands := q.claimable(gate.Add(time.Second)); len(cands) != 1 {
		t.Fatalf("job not claimable past its gate")
	}
}

// TestQueueMarkRunningRejectsStaleEpoch covers the fencing-token monotonic
// guarantee at the record level: a claimer whose lease epoch is not past the
// record's (a reclaim intervened since its snapshot) must not win.
func TestQueueMarkRunningRejectsStaleEpoch(t *testing.T) {
	q, err := newQueue(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := q.Submit(testSpec(1), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// A reclaim has already advanced the record to epoch 3.
	if _, err := q.update(j.ID, func(rec *Job) { rec.Epoch = 3 }); err != nil {
		t.Fatal(err)
	}
	if _, err := q.markRunning(j.ID, "w-stale", 3, time.Now()); !errors.Is(err, errNotClaimable) {
		t.Fatalf("stale-epoch markRunning: err=%v, want errNotClaimable", err)
	}
	if _, err := q.markRunning(j.ID, "w-fresh", 4, time.Now()); err != nil {
		t.Fatalf("fresh-epoch markRunning: %v", err)
	}
	got, _ := q.Get(j.ID)
	if got.State != StateRunning || got.Epoch != 4 || got.WorkerID != "w-fresh" {
		t.Fatalf("record after claim: %+v", got)
	}
}

func TestQueueIdempotentSubmit(t *testing.T) {
	q, err := newQueue(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := testSpec(1)
	s.IdempotencyKey = "retry-me"
	first, created, err := q.Submit(s, time.Now())
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	second, created, err := q.Submit(s, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if created || second.ID != first.ID {
		t.Fatalf("resubmit: created=%v id=%s, want replay of %s", created, second.ID, first.ID)
	}
	// A different tenant with the same key is a different job.
	s.Tenant = "other"
	third, created, err := q.Submit(s, time.Now())
	if err != nil || !created || third.ID == first.ID {
		t.Fatalf("cross-tenant key collided: created=%v err=%v", created, err)
	}
}

func TestQueueQuota(t *testing.T) {
	q, err := newQueue(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(testSpec(1), time.Now()); err != nil {
		t.Fatal(err)
	}
	second, _, err := q.Submit(testSpec(2), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit(testSpec(3), time.Now()); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("third active submit: err=%v, want ErrQuotaExhausted", err)
	}
	// Other tenants have their own budget.
	s := testSpec(4)
	s.Tenant = "other"
	if _, _, err := q.Submit(s, time.Now()); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	// Terminal jobs stop counting.
	if _, done, err := q.CancelQueued(second.ID, time.Now()); err != nil || !done {
		t.Fatalf("cancel queued: done=%v err=%v", done, err)
	}
	if _, _, err := q.Submit(testSpec(5), time.Now()); err != nil {
		t.Fatalf("submit after freeing quota: %v", err)
	}
}

func TestQueueDrainStopsIntake(t *testing.T) {
	q, err := newQueue(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q.StartDrain()
	if _, _, err := q.Submit(testSpec(1), time.Now()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: err=%v, want ErrDraining", err)
	}
}

func TestQueueQuarantinesCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	q, err := newQueue(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good, _, err := q.Submit(testSpec(1), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "job-dead.json")
	if err := os.WriteFile(bad, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	q2, err := newQueue(dir, 0)
	if err != nil {
		t.Fatalf("reload with corrupt record: %v", err)
	}
	if _, err := q2.Get(good.ID); err != nil {
		t.Fatalf("good record lost: %v", err)
	}
	if _, err := os.Stat(bad + ".corrupt"); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"builtin", JobSpec{System: "multigpu"}, true},
		{"empty", JobSpec{}, false},
		{"unknown system", JobSpec{System: "nope"}, false},
		{"both sources", JobSpec{System: "multigpu", SystemJSON: []byte(`{}`)}, false},
		{"bad json", JobSpec{SystemJSON: []byte(`{`)}, false},
		{"negative steps", JobSpec{System: "multigpu", Steps: -1}, false},
		{"largest sizes", JobSpec{System: "multigpu", ThermalGrid: maxThermalGrid, Steps: maxSteps,
			Runs: maxRuns, CompactSteps: maxSteps}, true},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestSpecValidateSizeBounds checks each size limit through Validate alone:
// a spec one past a limit, or far past it, is rejected with an error naming
// the field. No flow is started.
func TestSpecValidateSizeBounds(t *testing.T) {
	for _, c := range []struct {
		field string
		set   func(*JobSpec, int)
		max   int
	}{
		{"thermal_grid", func(s *JobSpec, v int) { s.ThermalGrid = v }, maxThermalGrid},
		{"steps", func(s *JobSpec, v int) { s.Steps = v }, maxSteps},
		{"runs", func(s *JobSpec, v int) { s.Runs = v }, maxRuns},
		{"compact_steps", func(s *JobSpec, v int) { s.CompactSteps = v }, maxSteps},
	} {
		for _, v := range []int{c.max + 1, 1_000_000_000, -1} {
			spec := JobSpec{System: "multigpu"}
			c.set(&spec, v)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s = %d: err = %v, want an error naming %s", c.field, v, err, c.field)
			}
		}
	}
}
