package placer

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// This file generalizes the checkpoint durability envelope (see
// checkpoint.go) for other durable JSON records — the placement service's
// on-disk job queue seals each job record with the same CRC-32C envelope and
// atomic-write discipline. The two share the corruption sentinels: a damaged
// sealed file matches ErrCheckpointCorrupt, a format mismatch matches
// ErrCheckpointVersion.

// sealedEnvelope is the generic durable on-disk form: an arbitrary JSON
// payload wrapped with a caller-chosen format tag and the CRC-32C of the
// payload's compact JSON form (the same canonicalization rule as
// checkpointEnvelope).
type sealedEnvelope struct {
	Format  string          `json:"format"`
	CRC32C  string          `json:"crc32c"`
	Payload json.RawMessage `json:"payload"`
}

// SealJSON wraps v's JSON encoding in a CRC-32C-checksummed envelope tagged
// with format. OpenSealedJSON reverses it.
func SealJSON(format string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	crc, err := checkpointCRC(payload)
	if err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(&sealedEnvelope{
		Format: format, CRC32C: crc, Payload: payload,
	}, "", " ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// OpenSealedJSON verifies a blob written by SealJSON — format tag and
// checksum — and decodes its payload into v. Damaged bytes yield an error
// matching ErrCheckpointCorrupt; an intact envelope with the wrong format
// tag yields one matching ErrCheckpointVersion.
func OpenSealedJSON(blob []byte, format string, v any) error {
	var env sealedEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return fmt.Errorf("placer: decoding sealed record: %w: %w", ErrCheckpointCorrupt, err)
	}
	if env.Format != format {
		return fmt.Errorf("placer: sealed record format %q, caller reads %q: %w",
			env.Format, format, ErrCheckpointVersion)
	}
	got, err := checkpointCRC(env.Payload)
	if err != nil {
		return fmt.Errorf("placer: sealed payload unparsable: %w: %w", ErrCheckpointCorrupt, err)
	}
	if got != env.CRC32C {
		return fmt.Errorf("placer: sealed record checksum %s, payload hashes to %s: %w",
			env.CRC32C, got, ErrCheckpointCorrupt)
	}
	if err := json.Unmarshal(env.Payload, v); err != nil {
		return fmt.Errorf("placer: decoding sealed payload: %w: %w", ErrCheckpointCorrupt, err)
	}
	return nil
}

// WriteSealedFile durably writes v to path under a CRC-sealed envelope using
// the checkpoint write discipline: temp sibling, fsync, rename, directory
// fsync. Unlike SaveCheckpointFile it keeps no previous generation — job
// records are small state machines whose latest state is the only truth.
func WriteSealedFile(path, format string, v any) error {
	blob, err := SealJSON(format, v)
	if err != nil {
		return err
	}
	return atomicWriteFile(path, blob)
}

// ReadSealedFile reads a record written by WriteSealedFile, verifying the
// format tag and checksum.
func ReadSealedFile(path, format string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return OpenSealedJSON(blob, format, v)
}

// atomicWriteFile lands blob at path via temp file + fsync + rename +
// directory fsync, so a crash at any instant leaves either the old bytes or
// the new bytes, never a torn mix.
func atomicWriteFile(path string, blob []byte) error {
	tmp, err := writeTemp(path, blob)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// writeTemp writes blob to a new temp sibling of path, named base-*.tmp,
// fsyncs it and returns its name. The name is this call's own, so two
// writers of one path never truncate or rename each other's bytes; a
// directory scan skips the .tmp suffix. On error no temp file is left.
func writeTemp(path string, blob []byte) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+"-*.tmp")
	if err != nil {
		return "", err
	}
	tmp := f.Name()
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}
