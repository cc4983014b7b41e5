package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadTraceRecords feeds arbitrary bytes to ReadTraceRecords and, as a
// trace file on disk, to TraceManifest.Verify. Neither may panic or hang. A
// rejected stream fails with ErrTraceCorrupt, and the records of an
// accepted one write back as JSON lines that read as the same records.
// Verify accepts the manifest of the bytes as written and rejects one a
// byte longer with ErrTraceCorrupt. The seed corpus is under
// testdata/fuzz/: a sealed-style trace, one with a torn tail, one with a
// corrupt middle line, and an empty file.
func FuzzReadTraceRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadTraceRecords(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("rejection does not match ErrTraceCorrupt: %v", err)
			}
		} else {
			var buf bytes.Buffer
			for _, rec := range recs {
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatalf("accepted record does not encode: %v", err)
				}
				buf.Write(append(line, '\n'))
			}
			again, err := ReadTraceRecords(&buf)
			if err != nil {
				t.Fatalf("re-encoded records do not read: %v", err)
			}
			if len(again) != len(recs) || len(recs) > 0 && !reflect.DeepEqual(again, recs) {
				t.Fatalf("re-encoded records read as %+v, want %+v", again, recs)
			}
		}

		path := filepath.Join(t.TempDir(), "trace.jsonl")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		m := TraceManifest{Bytes: int64(len(data)), CRC32C: crc32.Checksum(data, castagnoli)}
		if err := m.Verify(path); err != nil {
			t.Fatalf("manifest of the written bytes does not verify: %v", err)
		}
		m.Bytes++
		if err := m.Verify(path); !errors.Is(err, ErrTraceCorrupt) {
			t.Fatalf("manifest a byte longer: Verify = %v, want ErrTraceCorrupt", err)
		}
	})
}
