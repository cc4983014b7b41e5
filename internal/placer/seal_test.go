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
	if err := syncDir(dir); err != nil {
		t.Fatalf("existing directory: %v", err)
	}
	if err := syncDir(filepath.Join(dir, "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing directory: error %v, want one matching os.ErrNotExist", err)
	}
}
