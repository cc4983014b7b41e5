package service

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"tap25d/internal/placer"
)

// This file implements the crash-safe job-lease protocol that lets N worker
// processes drain one job directory. A worker claims a queued job by
// atomically creating a CRC-sealed lease file (O_CREATE|O_EXCL is the mutual
// exclusion: exactly one creator wins), renews it on a heartbeat ticker, and
// writes checkpoints and results only while it still holds the current
// fencing epoch. A scavenger that finds an expired lease removes it and
// re-acquires the job under an incremented epoch, so a worker that was merely
// wedged (not dead) discovers on its next renewal — or on its next checkpoint
// write, whichever comes first — that it lost the job, and abandons the
// attempt without touching the record.
//
// The protocol is a lease, not a lock: with plain files there is no
// compare-and-swap, so a microsecond read-verify-write window remains in
// renew/release/reclaim. Every such window is closed by fencing — any write
// that matters (checkpoint, job record) re-verifies lease ownership first,
// and a stale epoch is rejected — which is exactly the standard remedy for
// lease-based mutual exclusion over storage without atomic conditional
// writes.

// leaseFormat tags the sealed on-disk lease files.
const leaseFormat = "tap25d-lease"

// Lease failure sentinels.
var (
	// ErrLeaseHeld rejects acquiring a lease someone else holds (and has not
	// let expire).
	ErrLeaseHeld = errors.New("service: job lease held by another worker")
	// ErrLeaseLost marks a worker discovering mid-attempt that its lease
	// expired or was reclaimed under a newer fencing epoch: the attempt must
	// be abandoned without writing anything.
	ErrLeaseLost = errors.New("service: job lease lost (expired or fenced)")
)

// lease is the persisted claim of one worker on one running job. The Epoch is
// the fencing token: it increases by at least one on every claim and every
// reclaim of the job, and a writer holding an older epoch is stale.
type lease struct {
	JobID    string `json:"job_id"`
	WorkerID string `json:"worker_id"`
	Epoch    int64  `json:"epoch"`
	// AcquiredAt is when this worker claimed the job; RenewedAt advances on
	// every heartbeat; ExpiresAt is the deadline after which any scavenger
	// may reclaim the job.
	AcquiredAt time.Time `json:"acquired_at"`
	RenewedAt  time.Time `json:"renewed_at"`
	ExpiresAt  time.Time `json:"expires_at"`
}

// expired reports whether the lease's heartbeat deadline has passed.
func (l *lease) expired(now time.Time) bool { return now.After(l.ExpiresAt) }

// leasePath is the lease file of one job within the lease directory.
func leasePath(dir, jobID string) string {
	return filepath.Join(dir, jobID+".lease.json")
}

// readLease loads and verifies one job's lease file. A missing file returns
// an error matching fs.ErrNotExist; a torn or corrupt file (a crash mid-
// create can leave one, since the O_EXCL create cannot go through a rename)
// matches placer.ErrCheckpointCorrupt — callers treat both as reclaimable.
func readLease(dir, jobID string) (*lease, error) {
	blob, err := os.ReadFile(leasePath(dir, jobID))
	if err != nil {
		return nil, err
	}
	var l lease
	if err := placer.OpenSealedJSON(blob, leaseFormat, &l); err != nil {
		return nil, err
	}
	return &l, nil
}

// acquireLease atomically creates the job's lease file. Exactly one caller
// wins a given acquire race; losers get ErrLeaseHeld (whether the standing
// lease is live, expired, or torn — expiry is the scavenger's business, not
// the claimer's). The file is fsynced, and its directory entry made durable,
// before the claim is considered taken, so a crash immediately after a
// successful acquire cannot leave the worker believing it holds a claim the
// disk never recorded.
func acquireLease(dir, jobID, workerID string, epoch int64, ttl time.Duration, now time.Time) (*lease, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &lease{
		JobID:      jobID,
		WorkerID:   workerID,
		Epoch:      epoch,
		AcquiredAt: now.UTC(),
		RenewedAt:  now.UTC(),
		ExpiresAt:  now.UTC().Add(ttl),
	}
	blob, err := placer.SealJSON(leaseFormat, l)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(leasePath(dir, jobID), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("%w: %s", ErrLeaseHeld, jobID)
		}
		return nil, err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(leasePath(dir, jobID))
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(leasePath(dir, jobID))
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(leasePath(dir, jobID))
		return nil, err
	}
	if err := placer.SyncDir(dir); err != nil {
		os.Remove(leasePath(dir, jobID))
		return nil, err
	}
	return l, nil
}

// renewLease advances the heartbeat deadline of a lease the caller believes
// it holds. It re-reads the file first: a missing, corrupt, or reassigned
// lease (different worker or epoch) yields ErrLeaseLost — the job was
// reclaimed, and the caller must abandon the attempt.
func renewLease(dir string, l *lease, ttl time.Duration, now time.Time) error {
	if err := checkLease(dir, l); err != nil {
		return err
	}
	renewed := *l
	renewed.RenewedAt = now.UTC()
	renewed.ExpiresAt = now.UTC().Add(ttl)
	if err := placer.WriteSealedFile(leasePath(dir, l.JobID), leaseFormat, &renewed); err != nil {
		return err
	}
	*l = renewed
	return nil
}

// checkLease verifies that the on-disk lease still names the caller as the
// holder under the caller's epoch. It is the synchronous fencing check run
// before every write that matters (each checkpoint, the final record
// persist), so a stale writer is rejected within one file read of the
// reclaim — not merely at its next heartbeat.
func checkLease(dir string, l *lease) error {
	cur, err := readLease(dir, l.JobID)
	if err != nil {
		return fmt.Errorf("%w: %s: lease unreadable: %v", ErrLeaseLost, l.JobID, err)
	}
	if cur.WorkerID != l.WorkerID || cur.Epoch != l.Epoch {
		return fmt.Errorf("%w: %s: lease now held by %q at epoch %d (we are %q at epoch %d)",
			ErrLeaseLost, l.JobID, cur.WorkerID, cur.Epoch, l.WorkerID, l.Epoch)
	}
	return nil
}

// releaseLease removes the caller's lease file. A lease that is no longer the
// caller's (already reclaimed) is left alone: the new holder owns it now.
func releaseLease(dir string, l *lease) error {
	if err := checkLease(dir, l); err != nil {
		return err
	}
	if err := os.Remove(leasePath(dir, l.JobID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return placer.SyncDir(dir)
}

// removeExpiredLease deletes a lease file the caller has observed to be
// expired (or corrupt), clearing the way for a reclaim acquire. Concurrent
// removers are harmless — at most one unlink succeeds, and the acquire that
// follows is serialized by O_EXCL. The documented race (the dying worker
// renews in the microseconds between the observation and the unlink) is
// closed by fencing: the reclaim bumps the epoch in the job record, so the
// revenant's checkpoint and record writes are rejected. A removal that
// cannot be made durable is an error.
func removeExpiredLease(dir, jobID string) error {
	if err := os.Remove(leasePath(dir, jobID)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return placer.SyncDir(dir)
}

// leaseGuard is a worker's handle on the lease protecting its running job:
// the heartbeat goroutine renews through it, and the checkpoint/finalize
// paths consult it (and the disk) before writing. The mutex serializes
// those goroutines over the shared lease struct — a renewal rewrites its
// deadlines while a fencing check reads holder and epoch.
type leaseGuard struct {
	dir   string
	mu    sync.Mutex
	lease *lease
	lost  chan struct{} // closed once the lease is known lost
}

func newLeaseGuard(dir string, l *lease) *leaseGuard {
	return &leaseGuard{dir: dir, lease: l, lost: make(chan struct{})}
}

// markLost records that the lease is gone. Idempotent.
func (g *leaseGuard) markLost() {
	select {
	case <-g.lost:
	default:
		close(g.lost)
	}
}

// isLost reports whether the lease has been observed lost.
func (g *leaseGuard) isLost() bool {
	select {
	case <-g.lost:
		return true
	default:
		return false
	}
}

// check is the synchronous fencing verification: it fails fast if the lease
// was already observed lost, otherwise re-reads the lease file and compares
// holder and epoch. A failed check marks the guard lost.
func (g *leaseGuard) check() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.isLost() {
		return fmt.Errorf("%w: %s", ErrLeaseLost, g.lease.JobID)
	}
	if err := checkLease(g.dir, g.lease); err != nil {
		g.markLost()
		return err
	}
	return nil
}

// renew advances the heartbeat deadline, marking the guard lost on fencing
// failure.
func (g *leaseGuard) renew(ttl time.Duration, now time.Time) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.isLost() {
		return fmt.Errorf("%w: %s", ErrLeaseLost, g.lease.JobID)
	}
	if err := renewLease(g.dir, g.lease, ttl, now); err != nil {
		if errors.Is(err, ErrLeaseLost) {
			g.markLost()
		}
		return err
	}
	return nil
}
