package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"
)

// This file is the durable side of span tracing: a TraceSink appends every
// completed span of one trace (ContextWithTrace) to a JSONL file as it ends,
// so a crash loses at most the in-flight span; the final TraceManifest seals
// the file's span count, byte length and CRC-32C so readers can detect torn
// tails; and WritePerfettoTrace converts the records into the Chrome
// trace-event JSON that Perfetto and chrome://tracing open directly.
//
// The hot-path cost is controlled: Span.End consults an atomic sink count
// before touching the sink map, so flows without an attached sink — every CLI
// run without -trace, every library use — pay one atomic load per *traced*
// span and nothing at all for untraced ones.

// ErrTraceCorrupt matches every error ReadTraceRecords and
// TraceManifest.Verify return for damaged trace bytes: a malformed line
// before the last, a line over the 1 MiB limit, or a file whose length or
// checksum differs from its manifest.
var ErrTraceCorrupt = errors.New("obs: trace file corrupt")

// castagnoli is the CRC-32C table shared by trace files and their manifests
// (the same polynomial the checkpoint/job sealing uses).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TraceSink durably appends SpanRecords as JSON Lines to one file. It is safe
// for concurrent use by parallel annealing runs; writes are line-atomic under
// its mutex. The first write error is retained (Manifest reports it) and
// subsequent appends become no-ops, mirroring JSONLSink's journal semantics:
// telemetry failures never fail the run.
type TraceSink struct {
	mu    sync.Mutex
	f     *os.File
	crc   uint32
	spans int64
	bytes int64
	err   error
}

// NewTraceSink opens (or reopens) the trace file at path for appending. A
// re-opened file — a job resuming after a server restart — has its CRC, span
// count and byte count re-seeded from the existing content, so the final
// manifest covers the whole file, not just the last attempt's tail.
func NewTraceSink(path string) (*TraceSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open trace file: %w", err)
	}
	t := &TraceSink{f: f}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: stat trace file: %w", err)
	}
	if info.Size() > 0 {
		crc, spans, bytes, err := scanTraceFile(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("obs: reseed trace file %s: %w", path, err)
		}
		t.crc, t.spans, t.bytes = crc, spans, bytes
	}
	return t, nil
}

// scanTraceFile computes the running CRC-32C, line count and byte count of an
// existing trace file, leaving the offset wherever the read stopped (appends
// use O_APPEND, so the position does not matter).
func scanTraceFile(f *os.File) (crc uint32, lines, bytes int64, err error) {
	if _, err = f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, 0, err
	}
	buf := make([]byte, 64*1024)
	for {
		n, rerr := f.Read(buf)
		if n > 0 {
			crc = crc32.Update(crc, castagnoli, buf[:n])
			bytes += int64(n)
			for _, b := range buf[:n] {
				if b == '\n' {
					lines++
				}
			}
		}
		if rerr == io.EOF {
			return crc, lines, bytes, nil
		}
		if rerr != nil {
			return 0, 0, 0, rerr
		}
	}
}

// Append writes one span record as a JSON line. Errors are retained, not
// returned: tracing must never fail the traced work.
func (t *TraceSink) Append(rec SpanRecord) {
	if t == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil || t.err != nil {
		return
	}
	if _, err := t.f.Write(line); err != nil {
		t.err = err
		return
	}
	t.crc = crc32.Update(t.crc, castagnoli, line)
	t.spans++
	t.bytes += int64(len(line))
}

// Manifest snapshots the sink's durable totals for sealing next to the trace
// file once the trace completes.
func (t *TraceSink) Manifest(traceID, jobID string) TraceManifest {
	m := TraceManifest{TraceID: traceID, JobID: jobID}
	if t == nil {
		return m
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m.Spans = t.spans
	m.Bytes = t.bytes
	m.CRC32C = t.crc
	if t.err != nil {
		m.WriteError = t.err.Error()
	}
	return m
}

// Close syncs and closes the underlying file. Later Appends become no-ops.
func (t *TraceSink) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.f == nil {
		return t.err
	}
	f := t.f
	t.f = nil
	if err := f.Sync(); err != nil && t.err == nil {
		t.err = err
	}
	if err := f.Close(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// TraceManifest is the sealed summary written beside a completed trace file
// (placer.WriteSealedFile, format "tap25d-trace" — the sealing lives with the
// callers, since obs sits below the placer in the package DAG). Readers
// recompute the file's CRC-32C and compare to detect torn or truncated
// traces.
type TraceManifest struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	// Spans, Bytes and CRC32C describe the exact file contents at seal time.
	Spans  int64  `json:"spans"`
	Bytes  int64  `json:"bytes"`
	CRC32C uint32 `json:"crc32c"`
	// WriteError records the first append failure, if the trace is partial.
	WriteError string `json:"write_error,omitempty"`
}

// Verify recomputes the CRC-32C of the trace file at path and compares it
// (and the byte count) against the manifest; a mismatch matches
// ErrTraceCorrupt.
func (m TraceManifest) Verify(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	crc, _, bytes, err := scanTraceFile(f)
	if err != nil {
		return err
	}
	if bytes != m.Bytes || crc != m.CRC32C {
		return fmt.Errorf("%w: %s does not match its manifest: %d bytes crc %08x, manifest says %d bytes crc %08x",
			ErrTraceCorrupt, path, bytes, crc, m.Bytes, m.CRC32C)
	}
	return nil
}

// AttachTraceSink routes every ending span whose trace ID is trace into sink,
// in addition to the usual histogram and ring bookkeeping.
func (o *Observer) AttachTraceSink(trace string, sink *TraceSink) {
	if o == nil || trace == "" || sink == nil {
		return
	}
	o.mu.Lock()
	if _, ok := o.sinks[trace]; !ok {
		o.sinkN.Add(1)
	}
	o.sinks[trace] = sink
	o.mu.Unlock()
}

// DetachTraceSink stops routing spans of trace and returns the sink (nil when
// none was attached). The caller owns closing and sealing it.
func (o *Observer) DetachTraceSink(trace string) *TraceSink {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	sink, ok := o.sinks[trace]
	if ok {
		delete(o.sinks, trace)
		o.sinkN.Add(-1)
	}
	o.mu.Unlock()
	return sink
}

// traceAppend dispatches one completed traced span to its sink, if attached.
// The atomic sink count keeps the no-sink case to one load.
func (o *Observer) traceAppend(trace string, rec SpanRecord) {
	if o.sinkN.Load() == 0 {
		return
	}
	o.mu.Lock()
	sink := o.sinks[trace]
	o.mu.Unlock()
	sink.Append(rec)
}

// ObserveTracedSpan records an already-completed region directly into the
// phase histogram, the span ring and the trace sink — for callers that only
// learn the trace ID after the region ran (the service's job-submit path
// mints the ID inside the region being timed).
func (o *Observer) ObserveTracedSpan(trace string, phase Phase, label string, start time.Time, d time.Duration) {
	if o == nil || phase >= numPhases {
		return
	}
	if d < 0 {
		d = 0
	}
	rec := SpanRecord{
		Phase:      phase.String(),
		Label:      label,
		StartUnix:  start.UnixNano(),
		DurationNS: int64(d),
	}
	if trace != "" {
		rec.Trace = trace
		rec.SpanID = o.spanSeq.Add(1)
		rec.Track = rec.SpanID
	}
	o.phases[phase].Observe(uint64(d))
	o.spans.push(rec)
	if trace != "" {
		o.traceAppend(trace, rec)
	}
}

// ReadTraceRecords parses a JSONL trace stream. A partial trailing line — a
// trace still being written, or cut off by a crash before its manifest sealed
// — is tolerated and dropped. Damaged bytes elsewhere yield an error
// matching ErrTraceCorrupt; a failing reader's own error is returned as is.
func ReadTraceRecords(r io.Reader) ([]SpanRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []SpanRecord
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn tail is expected for live traces; a corrupt line in the
			// middle is not.
			if !sc.Scan() {
				break
			}
			return nil, fmt.Errorf("%w: line %d: %w", ErrTraceCorrupt, len(out)+1, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("%w: line %d: %w", ErrTraceCorrupt, len(out)+1, err)
	} else if err != nil {
		return nil, err
	}
	return out, nil
}

// perfettoEvent is one complete ("ph":"X") event of the Chrome trace-event
// format, the subset Perfetto needs to render a span timeline.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WritePerfettoTrace renders span records as Chrome/Perfetto trace-event
// JSON: each record becomes a complete event on the track (= timeline row) of
// its root span, with label/parent/span linkage in args. The output is
// deterministic for a given input, so goldens can pin the schema.
func WritePerfettoTrace(w io.Writer, recs []SpanRecord) error {
	events := make([]perfettoEvent, 0, len(recs))
	for _, r := range recs {
		ev := perfettoEvent{
			Name: r.Phase,
			Cat:  "tap25d",
			Ph:   "X",
			TS:   float64(r.StartUnix) / 1e3,
			Dur:  float64(r.DurationNS) / 1e3,
			PID:  1,
			TID:  r.Track,
		}
		if ev.TID == 0 {
			ev.TID = 1
		}
		args := map[string]any{}
		if r.Label != "" {
			args["label"] = r.Label
		}
		if r.Parent != "" {
			args["parent"] = r.Parent
		}
		if r.Trace != "" {
			args["trace"] = r.Trace
		}
		if r.SpanID != 0 {
			args["span_id"] = r.SpanID
		}
		if r.ParentID != 0 {
			args["parent_id"] = r.ParentID
		}
		if len(args) > 0 {
			ev.Args = args
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}
