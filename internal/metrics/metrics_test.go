package metrics

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

func TestMergeAccumulates(t *testing.T) {
	a := Counters{Evaluations: 2, ThermalSolves: 2, CGIterations: 50, FullAssembles: 1, DeltaAssembles: 1}
	b := Counters{Evaluations: 3, SkippedAssembles: 4, RouteCalls: 3}
	a.Merge(b)
	if a.Evaluations != 5 ||
		a.ThermalSolves != 2 || a.CGIterations != 50 ||
		a.FullAssembles != 1 || a.DeltaAssembles != 1 || a.SkippedAssembles != 4 ||
		a.RouteCalls != 3 {
		t.Fatalf("merge result %+v", a)
	}
}

func TestIsZero(t *testing.T) {
	var c Counters
	if !c.IsZero() {
		t.Fatal("zero value not IsZero")
	}
	c.CGIterations = 1
	if c.IsZero() {
		t.Fatal("non-zero counters reported IsZero")
	}
}

// TestStringStableOrder locks the single-line rendering: every per-flow
// group appears unconditionally, zero or not, in declaration order. Tools
// diff these lines across runs, so the format is part of the journal/report
// contract. The service-level jobs group is the exception — appended only
// when non-zero, so flows that never touch it keep the historical format.
func TestStringStableOrder(t *testing.T) {
	var zero Counters
	wantZero := "evals=0 solves=0 cg_iters=0 " +
		"assembles=0/0/0 (full/delta/skip) routes=0 ckpts=0 resumes=0 " +
		"recovery=0/0 (cold/mg) skipped_steps=0 ckpt_retries=0 resume_fallbacks=0 " +
		"surrogate=0/0/0/0 (prescreen/reject/audit/refit)"
	if s := zero.String(); s != wantZero {
		t.Fatalf("zero counters:\n got %q\nwant %q", s, wantZero)
	}

	c := Counters{
		Evaluations: 11, ThermalSolves: 9, CGIterations: 123,
		FullAssembles: 1, DeltaAssembles: 7, SkippedAssembles: 1,
		RouteCalls: 9, Checkpoints: 3, Resumes: 1,
		CGRetries: 2, CGFallbackPrecond: 1,
		StepEvalSkipped: 4, CkptWriteRetries: 2, ResumeFallbacks: 1,
		SurrogatePrescreens: 20, SurrogateRejects: 12, SurrogateAudits: 3, SurrogateRefits: 1,
		JobsSubmitted: 8, JobsCompleted: 5, JobsFailed: 1, JobsCanceled: 2, JobsResumed: 3,
		JobsQuotaRejected: 4, JobsDeduped: 6, JobsEventsDropped: 7,
	}
	want := "evals=11 solves=9 cg_iters=123 " +
		"assembles=1/7/1 (full/delta/skip) routes=9 ckpts=3 resumes=1 " +
		"recovery=2/1 (cold/mg) skipped_steps=4 ckpt_retries=2 resume_fallbacks=1 " +
		"surrogate=20/12/3/1 (prescreen/reject/audit/refit) " +
		"jobs=8/5/1/2/3 (submit/done/fail/cancel/resume) job_rejects=4/6 (quota/dedup) " +
		"events_dropped=7"
	if s := c.String(); s != want {
		t.Fatalf("populated counters:\n got %q\nwant %q", s, want)
	}
}

// TestJSONSchema locks the snake_case key set used by journal events,
// checkpoints, observability reports and the Prometheus counter names.
func TestJSONSchema(t *testing.T) {
	c := Counters{
		Evaluations: 1, ThermalSolves: 4, CGIterations: 5,
		FullAssembles: 6, DeltaAssembles: 7, SkippedAssembles: 8,
		RouteCalls: 9, Checkpoints: 10, Resumes: 11,
		CGRetries: 12, CGFallbackPrecond: 13,
		StepEvalSkipped: 14, CkptWriteRetries: 15, ResumeFallbacks: 16,
		SurrogatePrescreens: 17, SurrogateRejects: 18, SurrogateAudits: 19, SurrogateRefits: 20,
		JobsSubmitted: 21, JobsCompleted: 22, JobsFailed: 23, JobsCanceled: 24,
		JobsResumed: 25, JobsQuotaRejected: 26, JobsDeduped: 27,
	}
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{
		"cg_fallback_precond", "cg_iterations",
		"cg_retries", "checkpoints", "ckpt_write_retries", "delta_assembles",
		"evaluations", "full_assembles", "jobs_canceled", "jobs_completed",
		"jobs_deduped", "jobs_failed", "jobs_quota_rejected", "jobs_resumed",
		"jobs_submitted", "resume_fallbacks", "resumes",
		"route_calls", "skipped_assembles", "step_eval_skipped",
		"surrogate_audits", "surrogate_prescreens", "surrogate_refits",
		"surrogate_rejects", "thermal_solves",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("JSON keys:\n got %v\nwant %v", keys, want)
	}

	var back Counters
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", back, c)
	}
}

// TestJobCountersOmittedWhenZero pins the journal-compatibility contract of
// the service counters: a flow with no job queue serializes exactly the
// pre-service key set, so existing JSONL consumers (and the golden journal
// schema) see no new keys.
func TestJobCountersOmittedWhenZero(t *testing.T) {
	raw, err := json.Marshal(Counters{Evaluations: 1})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if len(k) > 5 && k[:5] == "jobs_" {
			t.Fatalf("zero job counter %q serialized; omitempty contract broken", k)
		}
	}
}

// TestEachCoversEveryField keeps Each exhaustive: the number of enumerated
// names must match the number of struct fields, and the names must be the
// JSON tags.
func TestEachCoversEveryField(t *testing.T) {
	var names []string
	Counters{}.Each(func(name string, _ int64) { names = append(names, name) })
	typ := reflect.TypeOf(Counters{})
	if len(names) != typ.NumField() {
		t.Fatalf("Each enumerates %d names, struct has %d fields", len(names), typ.NumField())
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for i := 0; i < typ.NumField(); i++ {
		tag := typ.Field(i).Tag.Get("json")
		for j, r := range tag {
			if r == ',' {
				tag = tag[:j]
				break
			}
		}
		if !seen[tag] {
			t.Errorf("field %s (json %q) missing from Each", typ.Field(i).Name, tag)
		}
	}
}
