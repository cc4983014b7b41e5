package service

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tap25d/internal/placer"
)

// TestLeaseAcquireExclusive checks the mutual exclusion at the heart of the
// protocol: exactly one creator of a job's lease file wins, and the loser is
// told the lease is held — even when the standing lease has already expired
// (expiry is the scavenger's business, not the claimer's).
func TestLeaseAcquireExclusive(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	if _, err := acquireLease(dir, "job-1", "w-a", 1, time.Second, now); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if _, err := acquireLease(dir, "job-1", "w-b", 1, time.Second, now); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("second acquire: err %v, want ErrLeaseHeld", err)
	}
	expired := now.Add(-time.Hour)
	if _, err := acquireLease(dir, "job-2", "w-a", 1, time.Second, expired); err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if _, err := acquireLease(dir, "job-2", "w-b", 2, time.Second, now); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("acquire over expired lease: err %v, want ErrLeaseHeld (removal is the scavenger's)", err)
	}
}

// TestLeaseRenewExtendsDeadline checks the heartbeat path: renewals push the
// expiry forward, and without them the lease runs out.
func TestLeaseRenewExtendsDeadline(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	l, err := acquireLease(dir, "job-1", "w-a", 1, time.Second, now)
	if err != nil {
		t.Fatal(err)
	}
	if l.expired(now.Add(500 * time.Millisecond)) {
		t.Fatal("lease expired inside its TTL")
	}
	if !l.expired(now.Add(2 * time.Second)) {
		t.Fatal("lease not expired past its TTL")
	}
	if err := renewLease(dir, l, time.Second, now.Add(900*time.Millisecond)); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if l.expired(now.Add(1500 * time.Millisecond)) {
		t.Fatal("renewed lease expired before its new deadline")
	}
	cur, err := readLease(dir, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.ExpiresAt.Equal(l.ExpiresAt) {
		t.Fatalf("on-disk deadline %v, in-memory %v", cur.ExpiresAt, l.ExpiresAt)
	}
}

// TestLeaseFencingRejectsStaleWriter is the stale-epoch rejection drill at
// the protocol level: after a reclaim re-acquires the job under epoch 2, the
// original epoch-1 holder fails every guarded operation — check (the
// pre-checkpoint and pre-record fence), renew (the heartbeat), and release —
// and the reclaimer's lease survives untouched.
func TestLeaseFencingRejectsStaleWriter(t *testing.T) {
	dir := t.TempDir()
	past := time.Now().Add(-time.Hour)
	stale, err := acquireLease(dir, "job-1", "w-dead", 1, time.Second, past)
	if err != nil {
		t.Fatal(err)
	}
	guard := newLeaseGuard(dir, stale)

	// The scavenger's takeover: clear the expired file, re-acquire at epoch 2.
	if err := removeExpiredLease(dir, "job-1"); err != nil {
		t.Fatalf("remove expired lease: %v", err)
	}
	if _, err := acquireLease(dir, "job-1", "w-live", 2, time.Minute, time.Now()); err != nil {
		t.Fatalf("reclaim acquire: %v", err)
	}

	if err := guard.check(); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale guard.check: err %v, want ErrLeaseLost", err)
	}
	if !guard.isLost() {
		t.Fatal("failed check did not mark the guard lost")
	}
	if err := guard.renew(time.Second, time.Now()); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale guard.renew: err %v, want ErrLeaseLost", err)
	}
	if err := releaseLease(dir, stale); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale release: err %v, want ErrLeaseLost", err)
	}
	cur, err := readLease(dir, "job-1")
	if err != nil {
		t.Fatalf("reclaimer's lease gone: %v", err)
	}
	if cur.WorkerID != "w-live" || cur.Epoch != 2 {
		t.Fatalf("lease holder %s epoch %d, want w-live epoch 2", cur.WorkerID, cur.Epoch)
	}
}

// TestLeaseDirSyncMissingDirectory: a lease removal in a directory that is
// gone cannot be made durable, so it is an error rather than a lease
// reported cleared.
func TestLeaseDirSyncMissingDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "leases")
	if err := removeExpiredLease(dir, "job-1"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("removeExpiredLease in a missing directory: err %v, want fs.ErrNotExist", err)
	}
}

// TestLeaseCornerFiles covers the unreadable-lease paths: a missing file
// matches fs.ErrNotExist, and a torn or scribbled one (a crash mid-create)
// matches placer.ErrCheckpointCorrupt — the scavenger treats both as
// reclaimable rather than wedging the job forever.
func TestLeaseCornerFiles(t *testing.T) {
	dir := t.TempDir()
	if _, err := readLease(dir, "absent"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing lease: err %v, want fs.ErrNotExist", err)
	}
	if err := os.WriteFile(leasePath(dir, "torn"), []byte("{half a le"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readLease(dir, "torn"); !errors.Is(err, placer.ErrCheckpointCorrupt) {
		t.Fatalf("torn lease: err %v, want ErrCheckpointCorrupt", err)
	}
}
