package placer

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

type sealRecord struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Gen   int    `json:"gen"`
}

func TestSealedFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.json")
	in := sealRecord{ID: "job-1", State: "running", Gen: 7}
	if err := WriteSealedFile(path, "tap25d-job", in); err != nil {
		t.Fatal(err)
	}
	var out sealRecord
	if err := ReadSealedFile(path, "tap25d-job", &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v want %+v", out, in)
	}
}

func TestSealedFileDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.json")
	if err := WriteSealedFile(path, "tap25d-job", sealRecord{ID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the payload without breaking the JSON structure.
	mut := bytes.Replace(blob, []byte(`"job-1"`), []byte(`"job-2"`), 1)
	if bytes.Equal(mut, blob) {
		t.Fatal("mutation did not apply")
	}
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	var out sealRecord
	err = ReadSealedFile(path, "tap25d-job", &out)
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("corrupted record: got err %v, want ErrCheckpointCorrupt", err)
	}
}

func TestSealedFileRejectsForeignFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.json")
	if err := WriteSealedFile(path, "tap25d-job", sealRecord{ID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	var out sealRecord
	err := ReadSealedFile(path, "tap25d-other", &out)
	if !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("foreign format: got err %v, want ErrCheckpointVersion", err)
	}
}

func TestSealedFileMissingIsNotExist(t *testing.T) {
	var out sealRecord
	err := ReadSealedFile(filepath.Join(t.TempDir(), "absent.json"), "tap25d-job", &out)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: got err %v, want fs.ErrNotExist", err)
	}
}

// TestSyncDirReportsMissingDirectory: a directory fsync that cannot happen
// is an error, so a write is never reported durable without it.
func TestSyncDirReportsMissingDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := SyncDir(dir); err != nil {
		t.Fatalf("existing directory: %v", err)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing directory: error %v, want one matching os.ErrNotExist", err)
	}
}

// TestSealedFileConcurrentWriters: two writers of one path, as a revenant
// worker and a lease's new holder both renewing one lease file, alternate
// different payloads while a reader opens the path. Each writer goes
// through a temp file of its own, so every write succeeds, every open
// parses as one writer's whole payload, and no temp file is left behind.
func TestSealedFileConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.lease.json")
	const writes = 150
	payload := func(w int) sealRecord {
		// Payloads of different lengths, so a torn mix cannot parse.
		return sealRecord{ID: string(bytes.Repeat([]byte{'a' + byte(w)}, 64<<(4*w))), State: "running", Gen: w}
	}
	if err := WriteSealedFile(path, "tap25d-lease", payload(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	for w := range 2 {
		go func() {
			var err error
			for k := 0; k < writes && err == nil; k++ {
				err = WriteSealedFile(path, "tap25d-lease", payload(w))
			}
			errs <- err
		}()
	}
	reads := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				reads <- nil
				return
			default:
			}
			var got sealRecord
			if err := ReadSealedFile(path, "tap25d-lease", &got); err != nil {
				reads <- err
				return
			}
			if got != payload(got.Gen) {
				reads <- errors.New("read a payload neither writer wrote")
				return
			}
		}
	}()
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("writer: %v", err)
		}
	}
	close(done)
	if err := <-reads; err != nil {
		t.Errorf("reader: %v", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}
