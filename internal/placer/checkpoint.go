package placer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"syscall"

	"tap25d/internal/chiplet"
)

// CheckpointVersion is the current snapshot format version. Load rejects
// snapshots written by an incompatible version.
const CheckpointVersion = 1

// checkpointFormat tags the durable on-disk envelope that wraps a checkpoint
// payload with its CRC (see SaveCheckpointFile).
const checkpointFormat = "tap25d-ckpt"

// ErrCheckpointCorrupt is wrapped by decode errors caused by damaged bytes:
// truncation, garbage, or a checksum mismatch. A resume that hits it should
// fall back to the previous checkpoint generation (LoadCheckpointFallback and
// FileStore.Restore do).
var ErrCheckpointCorrupt = errors.New("placer: checkpoint corrupt")

// ErrCheckpointVersion is wrapped by decode errors caused by a snapshot
// written under a different format version — intact bytes this build cannot
// interpret, as opposed to corruption.
var ErrCheckpointVersion = errors.New("placer: checkpoint version unsupported")

// castagnoli is the CRC-32C table used for checkpoint payload checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checkpoint is a complete, serializable snapshot of an annealing run: the
// schedule position, the RNG state (seed plus raw draw count — see rng.go),
// the current and best OCM placements, the sliding-window normalization state
// behind the dynamic-alpha cost of Eqn. (12), and an opaque evaluator state
// blob (for SystemEvaluator, the thermal model's warm-start field).
//
// A run resumed from a Checkpoint at the same seed is bit-compatible with an
// uninterrupted run: it visits the same placements, makes the same
// accept/reject decisions, and returns the same final result.
type Checkpoint struct {
	// Version stamps the snapshot format (CheckpointVersion).
	Version int `json:"version"`
	// Label is free-form caller context (e.g. the system name); Resume
	// ignores it.
	Label string `json:"label,omitempty"`
	// Run is the run index within a PlaceBestOf fan-out.
	Run int `json:"run"`
	// Step is the next step index to execute on resume.
	Step int `json:"step"`
	// K is the annealing temperature after the last completed step.
	K float64 `json:"k"`
	// RNGSeed and RNGDraws reconstruct the generator: re-seed and discard
	// RNGDraws raw outputs.
	RNGSeed  int64  `json:"rng_seed"`
	RNGDraws uint64 `json:"rng_draws"`
	// Options echoes the run's algorithmic configuration (function-valued
	// orchestration hooks are not serialized). Resume uses these as the
	// authoritative settings so a resumed run cannot silently diverge.
	Options Options `json:"options"`
	// Cur and Best are the current and best-so-far placements with their
	// metrics.
	Cur              chiplet.Placement `json:"cur"`
	CurTempC         float64           `json:"cur_temp_c"`
	CurWirelengthMM  float64           `json:"cur_wirelength_mm"`
	Best             chiplet.Placement `json:"best"`
	BestTempC        float64           `json:"best_temp_c"`
	BestWirelengthMM float64           `json:"best_wirelength_mm"`
	// Initial preserves the run's starting placement diagnostics for the
	// final Result.
	Initial             chiplet.Placement `json:"initial"`
	InitialPeakC        float64           `json:"initial_peak_c"`
	InitialWirelengthMM float64           `json:"initial_wirelength_mm"`
	// Accepted and CompletedSteps restore the Result counters.
	Accepted       int `json:"accepted"`
	CompletedSteps int `json:"completed_steps"`
	// BoundsT/BoundsW/BoundsIdx serialize the sliding min-max window of
	// Eqn. (12); BoundsSize is its capacity.
	BoundsT    []float64 `json:"bounds_t"`
	BoundsW    []float64 `json:"bounds_w"`
	BoundsIdx  int       `json:"bounds_idx"`
	BoundsSize int       `json:"bounds_size"`
	// History carries the per-step samples recorded so far (Options.History
	// runs only).
	History []Sample `json:"history,omitempty"`
	// EvalState is the evaluator's opaque state (StateCheckpointer); JSON
	// encodes it as base64.
	EvalState []byte `json:"eval_state,omitempty"`
}

// CheckpointFunc persists a snapshot. It is called from inside the annealing
// loop, so a slow sink directly slows the run; PlaceBestOf calls it
// concurrently from parallel runs (distinguish them by cp.Run). A returned
// error aborts the run.
type CheckpointFunc func(cp *Checkpoint) error

// RestoreFunc supplies the checkpoint a run should resume from, or nil for a
// fresh start. PlaceBestOf queries it once per run index before that run
// begins.
type RestoreFunc func(run int) (*Checkpoint, error)

// StateCheckpointer is implemented by evaluators whose internal state affects
// future evaluations (SystemEvaluator's thermal model warm-starts CG from the
// previous temperature field). Checkpointing captures that state so a resumed
// run replays the exact evaluation trajectory; stateless evaluators simply
// don't implement the interface.
type StateCheckpointer interface {
	// CheckpointState serializes the evaluator state.
	CheckpointState() ([]byte, error)
	// RestoreState re-installs state captured by CheckpointState.
	RestoreState(state []byte) error
}

// Validate checks the structural integrity of a decoded snapshot against the
// system it will resume on.
func (cp *Checkpoint) Validate(sys *chiplet.System) error {
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("placer: checkpoint version %d, this build reads %d", cp.Version, CheckpointVersion)
	}
	n := len(sys.Chiplets)
	for name, p := range map[string]chiplet.Placement{"cur": cp.Cur, "best": cp.Best, "initial": cp.Initial} {
		if len(p.Centers) != n || len(p.Rotated) != n {
			return fmt.Errorf("placer: checkpoint %s placement has %d chiplets, system has %d", name, len(p.Centers), n)
		}
	}
	if len(cp.BoundsT) != len(cp.BoundsW) {
		return fmt.Errorf("placer: checkpoint bounds arrays disagree (%d vs %d)", len(cp.BoundsT), len(cp.BoundsW))
	}
	if cp.Step < 0 || cp.Step > cp.Options.Steps {
		return fmt.Errorf("placer: checkpoint step %d outside budget %d", cp.Step, cp.Options.Steps)
	}
	return nil
}

// Encode writes the checkpoint as indented JSON (the bare payload, without
// the durable envelope; DecodeCheckpoint reads both forms).
func (cp *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(cp)
}

// checkpointEnvelope is the durable on-disk form: the checkpoint payload
// wrapped with a format tag and the CRC-32C of the payload's compact JSON
// form. The compact form is the canonical hashing input because envelope
// encoding re-indents the embedded payload — whitespace is the one thing the
// envelope legitimately changes, so it is the one thing the checksum ignores.
type checkpointEnvelope struct {
	Format     string          `json:"format"`
	CRC32C     string          `json:"crc32c"`
	Checkpoint json.RawMessage `json:"checkpoint"`
}

// checkpointCRC hashes a payload's canonical compact form.
func checkpointCRC(payload []byte) (string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.Checksum(buf.Bytes(), castagnoli)), nil
}

// DecodeCheckpoint reads a checkpoint: either the durable CRC-checksummed
// envelope written by SaveCheckpointFile, or the bare payload JSON written by
// Encode and by builds predating the envelope. Damaged bytes — truncation,
// garbage, a checksum mismatch — yield an error matching ErrCheckpointCorrupt;
// an intact snapshot of an unsupported format version yields one matching
// ErrCheckpointVersion. Callers should Validate the result against the target
// system before resuming.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("placer: reading checkpoint: %w: %w", ErrCheckpointCorrupt, err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("placer: decoding checkpoint: %w: %w", ErrCheckpointCorrupt, err)
	}
	payload := raw
	if env.Format != "" {
		if env.Format != checkpointFormat {
			return nil, fmt.Errorf("placer: checkpoint format %q, this build reads %q: %w",
				env.Format, checkpointFormat, ErrCheckpointVersion)
		}
		got, err := checkpointCRC(env.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("placer: checkpoint payload unparsable: %w: %w", ErrCheckpointCorrupt, err)
		}
		if got != env.CRC32C {
			return nil, fmt.Errorf("placer: checkpoint checksum %s, payload hashes to %s: %w",
				env.CRC32C, got, ErrCheckpointCorrupt)
		}
		payload = env.Checkpoint
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return nil, fmt.Errorf("placer: decoding checkpoint payload: %w: %w", ErrCheckpointCorrupt, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("placer: checkpoint version %d, this build reads %d: %w",
			cp.Version, CheckpointVersion, ErrCheckpointVersion)
	}
	return &cp, nil
}

// PrevCheckpointPath returns the previous-generation sibling of a checkpoint
// path (SaveCheckpointFile's rotation target).
func PrevCheckpointPath(path string) string { return path + ".prev" }

// SaveCheckpointFile durably writes cp to path:
//
//   - the payload is wrapped in a CRC-32C-checksummed envelope, so any later
//     bit rot or truncation is detected at load time rather than trusted;
//   - the bytes land in a temporary sibling first and are fsynced before the
//     rename, so a crash mid-write never corrupts an existing checkpoint;
//   - an existing checkpoint at path is rotated to path+".prev" (replacing
//     any older generation), so one corrupted newest file never strands the
//     run — LoadCheckpointFallback reads the previous generation instead;
//   - the parent directory is fsynced after the renames, making both
//     generation links themselves durable.
func SaveCheckpointFile(path string, cp *Checkpoint) error {
	blob, err := sealCheckpoint(cp)
	if err != nil {
		return err
	}

	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, PrevCheckpointPath(path)); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// sealCheckpoint returns cp in its durable envelope, as SaveCheckpointFile
// writes it.
func sealCheckpoint(cp *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	crc, err := checkpointCRC(payload)
	if err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(&checkpointEnvelope{
		Format:     checkpointFormat,
		CRC32C:     crc,
		Checkpoint: payload,
	}, "", " ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// syncDir fsyncs a directory so renames within it survive a crash, and
// reports a directory it cannot open or sync. Some platforms and
// filesystems cannot fsync a directory at all and answer EINVAL or ENOTSUP;
// that counts as success, since there is no stronger guarantee to get and
// the rename itself is still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		err = nil
	}
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadCheckpointFile reads a checkpoint previously written by
// SaveCheckpointFile, falling back to the previous generation
// (path+".prev") when the newest file is corrupt, version-skewed, or
// missing while the previous survives. Callers that need to know whether
// the fallback happened use LoadCheckpointFallback.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	cp, _, err := LoadCheckpointFallback(path)
	return cp, err
}

// LoadCheckpointFallback is LoadCheckpointFile reporting whether the
// previous generation was used. When neither generation is readable, the
// newest file's error is returned (matching fs.ErrNotExist when no
// checkpoint exists at all, so callers can treat that as a fresh start).
func LoadCheckpointFallback(path string) (*Checkpoint, bool, error) {
	cp, newestErr := loadCheckpointOne(path)
	if newestErr == nil {
		return cp, false, nil
	}
	prev, prevErr := loadCheckpointOne(PrevCheckpointPath(path))
	if prevErr == nil {
		return prev, true, nil
	}
	return nil, false, newestErr
}

// loadCheckpointOne reads a single checkpoint generation.
func loadCheckpointOne(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}
