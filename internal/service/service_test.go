package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tap25d"
)

// newTestServer builds a Service over dir and serves its API from an
// httptest server. The cleanup drains the service.
func newTestServer(t *testing.T, dir string, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.DataDir = dir
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 5
	}
	if cfg.ProgressEvery == 0 {
		cfg.ProgressEvery = 5
	}
	if cfg.Observer == nil {
		cfg.Observer = tap25d.NewObserver()
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ts := httptest.NewServer(Handler(svc))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := testContext(t, 30*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*Job, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return &job, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) *Job {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: HTTP %d", id, resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return &job
}

func waitState(t *testing.T, ts *httptest.Server, id string, states ...string) *Job {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		job := getJob(t, ts, id)
		for _, s := range states {
			if job.State == s {
				return job
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (err=%q), want one of %v", id, job.State, job.Error, states)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	Event string
	Data  []byte
}

// readSSE consumes the events stream of a job until the terminal "job" frame
// (or limit frames), returning every frame seen.
func readSSE(t *testing.T, ts *httptest.Server, id string, limit int) []sseFrame {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: Content-Type %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.Event != "" {
				frames = append(frames, cur)
				if cur.Event == "job" || len(frames) >= limit {
					return frames
				}
				cur = sseFrame{}
			}
		}
	}
	return frames
}

func TestServiceEndToEndWithSSE(t *testing.T) {
	svc, ts := newTestServer(t, t.TempDir(), Config{})
	job, resp := postJob(t, ts, testSpec(7))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location %q", loc)
	}

	frames := readSSE(t, ts, job.ID, 10_000)
	last := frames[len(frames)-1]
	if last.Event != "job" {
		t.Fatalf("stream ended with %q, want terminal job frame", last.Event)
	}
	var final Job
	if err := json.Unmarshal(last.Data, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final job: state=%s result=%v err=%q", final.State, final.Result, final.Error)
	}
	if final.Result.PeakC <= 0 || len(final.Result.Placement.Centers) == 0 {
		t.Fatalf("implausible result: %+v", final.Result)
	}
	kinds := map[string]int{}
	for _, f := range frames {
		kinds[f.Event]++
	}
	if kinds["step"] == 0 || kinds["checkpoint"] == 0 || kinds["final"] == 0 {
		t.Fatalf("event kinds %v, want step+checkpoint+final", kinds)
	}

	c := svc.Counters()
	if c.JobsSubmitted != 1 || c.JobsCompleted != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{})
	for _, c := range []struct {
		body   string
		status int
		code   string
	}{
		{`{not json`, http.StatusBadRequest, "bad_json"},
		{`{"steps": 10}`, http.StatusBadRequest, "bad_spec"},
		{`{"system":"multigpu","bogus_field":1}`, http.StatusBadRequest, "bad_json"},
		// The preconditioner is grid-selected; the removed field is as
		// unknown as any other.
		{`{"system":"multigpu","precond":"ssor"}`, http.StatusBadRequest, "bad_json"},
		{`{"system":"multigpu","precond":"mg"}`, http.StatusBadRequest, "bad_json"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var e map[string]apiError
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != c.status || e["error"].Code != c.code {
			t.Errorf("%s: HTTP %d code %q, want %d %q", c.body, resp.StatusCode, e["error"].Code, c.status, c.code)
		}
	}
	// Unknown job: 404 on GET, DELETE and events.
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/jobs/job-nope"},
		{"DELETE", "/v1/jobs/job-nope"},
		{"GET", "/v1/jobs/job-nope/events"},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: HTTP %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

func TestDuplicateSubmitIsIdempotent(t *testing.T) {
	svc, ts := newTestServer(t, t.TempDir(), Config{})
	spec := testSpec(1)
	spec.IdempotencyKey = "once"
	first, resp1 := postJob(t, ts, spec)
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("first: HTTP %d", resp1.StatusCode)
	}
	second, resp2 := postJob(t, ts, spec)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replay: HTTP %d, want 200", resp2.StatusCode)
	}
	if second.ID != first.ID {
		t.Fatalf("replay created new job %s, want %s", second.ID, first.ID)
	}
	if c := svc.Counters(); c.JobsSubmitted != 1 || c.JobsDeduped != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestQuotaExhaustionReturns429(t *testing.T) {
	svc, ts := newTestServer(t, t.TempDir(), Config{TenantQuota: 1, Workers: 1})
	spec := testSpec(1)
	spec.Steps = 2000 // keep the first job active while the second submits
	if _, resp := postJob(t, ts, spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first: HTTP %d", resp.StatusCode)
	}
	_, resp := postJob(t, ts, testSpec(2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: HTTP %d, want 429", resp.StatusCode)
	}
	if c := svc.Counters(); c.JobsQuotaRejected != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	svc, ts := newTestServer(t, t.TempDir(), Config{Workers: 1})
	long := testSpec(1)
	long.Steps = 2000
	blocker, _ := postJob(t, ts, long)
	waitState(t, ts, blocker.ID, StateRunning)
	victim, _ := postJob(t, ts, testSpec(2))

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", resp.StatusCode)
	}
	j := getJob(t, ts, victim.ID)
	if j.State != StateCanceled || j.StartedAt != nil {
		t.Fatalf("canceled queued job: %+v", j)
	}
	// Unblock the worker quickly.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+blocker.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	waitState(t, ts, blocker.ID, StateCanceled)
	// The worker increments JobsCanceled after persisting the terminal
	// record, so the counter can trail the observable state briefly.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Counters().JobsCanceled != 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c := svc.Counters(); c.JobsCanceled != 2 {
		t.Fatalf("counters %+v", c)
	}
	// Canceling a terminal job is a 409.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel terminal: HTTP %d, want 409", resp.StatusCode)
	}
}

func TestCancelWhileRunning(t *testing.T) {
	svc, ts := newTestServer(t, t.TempDir(), Config{Workers: 1})
	long := testSpec(1)
	long.Steps = 5000
	job, _ := postJob(t, ts, long)
	waitState(t, ts, job.ID, StateRunning)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d", resp.StatusCode)
	}
	final := waitState(t, ts, job.ID, StateCanceled)
	if final.FinishedAt == nil {
		t.Fatalf("canceled job has no finish time: %+v", final)
	}
	// The worker increments JobsCanceled after persisting the terminal
	// record, so the counter can trail the observable state briefly.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Counters().JobsCanceled != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if c := svc.Counters(); c.JobsCanceled != 1 {
		t.Fatalf("counters %+v", c)
	}
}

// TestDrainRestartResume is the kill-and-restart drill: a job interrupted by
// a drain mid-anneal must, on the next server generation, resume from its
// checkpoint and finish with the exact result an uninterrupted run produces.
func TestDrainRestartResume(t *testing.T) {
	spec := testSpec(11)
	spec.Steps = 120

	// Reference: the same job, uninterrupted, through its own server.
	_, refTS := newTestServer(t, t.TempDir(), Config{Workers: 1})
	refJob, _ := postJob(t, refTS, spec)
	ref := waitState(t, refTS, refJob.ID, StateDone, StateFailed)
	if ref.State != StateDone {
		t.Fatalf("reference run failed: %q", ref.Error)
	}

	// Interrupted: same spec, drained after the first checkpoint lands.
	dir := t.TempDir()
	cfg := Config{Workers: 1, CheckpointEvery: 5, ProgressEvery: 5, Observer: tap25d.NewObserver()}
	cfg.DataDir = dir
	svc1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Start()
	job, _, err := svc1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events, cancelSub, err := svc1.Subscribe(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	sawCheckpoint := false
	timeout := time.After(2 * time.Minute)
	for !sawCheckpoint {
		select {
		case e := <-events:
			if e.Kind == tap25d.EventCheckpoint {
				sawCheckpoint = true
			}
		case <-timeout:
			t.Fatal("no checkpoint event before timeout")
		}
	}
	cancelSub()
	ctx, cancel := testContext(t, time.Minute)
	if err := svc1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	mid, err := svc1.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != StateQueued {
		t.Fatalf("drained mid-run job is %q, want re-queued", mid.State)
	}

	// Restart: a new service over the same data dir picks the job back up.
	svc2, ts2 := newTestServer(t, dir, cfg)
	final := waitState(t, ts2, job.ID, StateDone, StateFailed, StateCanceled)
	if final.State != StateDone {
		t.Fatalf("resumed run ended %q: %s", final.State, final.Error)
	}
	if !final.Resumed {
		t.Fatal("resumed job not flagged Resumed")
	}
	if final.Attempts < 2 {
		t.Fatalf("attempts=%d, want >=2", final.Attempts)
	}
	if c := svc2.Counters(); c.JobsResumed != 1 {
		t.Fatalf("restart counters %+v", c)
	}

	// The resumed result must be bit-identical to the uninterrupted one.
	if final.Result.PeakC != ref.Result.PeakC ||
		final.Result.WirelengthMM != ref.Result.WirelengthMM {
		t.Fatalf("resumed metrics (%.10f°C, %.10fmm) != reference (%.10f°C, %.10fmm)",
			final.Result.PeakC, final.Result.WirelengthMM,
			ref.Result.PeakC, ref.Result.WirelengthMM)
	}
	if !reflect.DeepEqual(final.Result.Placement, ref.Result.Placement) {
		t.Fatalf("resumed placement differs from reference:\n got %+v\nwant %+v",
			final.Result.Placement, ref.Result.Placement)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	svc, ts := newTestServer(t, t.TempDir(), Config{})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", resp.StatusCode)
	}
	job, _ := postJob(t, ts, testSpec(3))
	waitState(t, ts, job.ID, StateDone)

	const completed = "tap25d_jobs_completed_total 1"
	const latency = `tap25d_named_duration_seconds_count{name="job_latency"} 1`
	// The worker counts the job and its latency after persisting the terminal
	// record, so the counter lines can trail the observable state briefly.
	var body string
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err = http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		body = buf.String()
		if strings.Contains(body, completed) && strings.Contains(body, latency) || !time.Now().Before(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, want := range []string{
		"tap25d_jobs_submitted_total 1",
		completed,
		`tap25d_gauge{name="service_queue_depth"}`,
		latency,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_ = svc
}

func TestLoadDriver(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir(), Config{Workers: 2})
	entries, err := RunLoad(LoadConfig{BaseURL: ts.URL, Jobs: 4, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, e := range entries {
		byName[e.Name] = e.Value
	}
	if byName["tap25d/service/jobs_completed"] != 4 {
		t.Fatalf("entries %v", byName)
	}
	if byName["tap25d/service/submit_requests_per_sec"] <= 0 ||
		byName["tap25d/service/job_latency_p99_ms"] <= 0 ||
		byName["tap25d/service/job_latency_p99_ms"] < byName["tap25d/service/job_latency_p50_ms"] {
		t.Fatalf("implausible load stats %v", byName)
	}
}

// testContext builds a context bounded by d that also respects the test
// deadline.
func testContext(t *testing.T, d time.Duration) (ctx context.Context, cancel func()) {
	if dl, ok := t.Deadline(); ok {
		if until := time.Until(dl) - 5*time.Second; until > 0 && until < d {
			d = until
		}
	}
	return context.WithTimeout(context.Background(), d)
}

// TestRetryAfterHeaders pins the backpressure contract: every admission
// rejection — tenant quota (429), queue-depth shedding (503 overloaded) and
// drain (503 draining) — carries a positive integer Retry-After header, so
// clients can back off without guessing.
func TestRetryAfterHeaders(t *testing.T) {
	retryAfter := func(t *testing.T, resp *http.Response) int {
		t.Helper()
		h := resp.Header.Get("Retry-After")
		if h == "" {
			t.Fatalf("HTTP %d response has no Retry-After header", resp.StatusCode)
		}
		secs, err := strconv.Atoi(h)
		if err != nil || secs < 1 {
			t.Fatalf("Retry-After %q, want a positive integer of seconds", h)
		}
		return secs
	}

	t.Run("quota_429", func(t *testing.T) {
		// Serve-only (Workers: -1): jobs stay queued, so one submission pins
		// the tenant at its quota.
		_, ts := newTestServer(t, t.TempDir(), Config{Workers: -1, TenantQuota: 1})
		spec := JobSpec{System: "multigpu", ThermalGrid: 16, Steps: 5, Runs: 1, CompactSteps: 100}
		if _, resp := postJob(t, ts, spec); resp.StatusCode != http.StatusCreated {
			t.Fatalf("first submit: HTTP %d", resp.StatusCode)
		}
		spec.Seed = 2
		_, resp := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-quota submit: HTTP %d, want 429", resp.StatusCode)
		}
		retryAfter(t, resp)
	})

	t.Run("overloaded_503", func(t *testing.T) {
		_, ts := newTestServer(t, t.TempDir(), Config{Workers: -1, MaxQueueDepth: 1})
		spec := JobSpec{System: "multigpu", ThermalGrid: 16, Steps: 5, Runs: 1, CompactSteps: 100,
			IdempotencyKey: "first"}
		if _, resp := postJob(t, ts, spec); resp.StatusCode != http.StatusCreated {
			t.Fatalf("first submit: HTTP %d", resp.StatusCode)
		}
		spec.Seed = 2
		spec.IdempotencyKey = ""
		_, resp := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("shed submit: HTTP %d, want 503", resp.StatusCode)
		}
		retryAfter(t, resp)
		var e struct {
			Code string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Code != "overloaded" {
			t.Errorf("shed code %q, want overloaded", e.Code)
		}
		// An idempotent resubmit of an already-admitted job is not shed: the
		// client is asking about existing work, not adding new work.
		spec.Seed = 1
		spec.IdempotencyKey = "first"
		if _, resp := postJob(t, ts, spec); resp.StatusCode != http.StatusOK {
			t.Errorf("idempotent resubmit during shedding: HTTP %d, want 200", resp.StatusCode)
		}
	})

	t.Run("draining_503", func(t *testing.T) {
		svc, ts := newTestServer(t, t.TempDir(), Config{Workers: -1})
		svc.queue.StartDrain()
		_, resp := postJob(t, ts, JobSpec{System: "multigpu", ThermalGrid: 16, Steps: 5, Runs: 1, CompactSteps: 100})
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("draining submit: HTTP %d, want 503", resp.StatusCode)
		}
		if secs := retryAfter(t, resp); secs != drainRetryAfterSecs {
			t.Errorf("draining Retry-After %d, want the flat %d", secs, drainRetryAfterSecs)
		}
	})
}

// TestConcurrentIdempotentSubmits races two POSTs carrying the same (tenant,
// idempotency_key) through the live HTTP stack: exactly one job record may
// exist afterwards, and both responses must name it. Run under -race, this
// also exercises the submit path's locking.
func TestConcurrentIdempotentSubmits(t *testing.T) {
	svc, ts := newTestServer(t, t.TempDir(), Config{Workers: -1})
	spec := JobSpec{
		System: "multigpu", ThermalGrid: 16, Steps: 5, Runs: 1, CompactSteps: 100,
		Tenant: "acme", IdempotencyKey: "dedupe-me",
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	const racers = 8
	start := make(chan struct{})
	ids := make([]string, racers)
	status := make([]int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			status[i] = resp.StatusCode
			var job Job
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Errorf("racer %d: decoding: %v", i, err)
				return
			}
			ids[i] = job.ID
		}(i)
	}
	close(start)
	wg.Wait()

	created := 0
	for i := 0; i < racers; i++ {
		switch status[i] {
		case http.StatusCreated:
			created++
		case http.StatusOK:
		default:
			t.Fatalf("racer %d: HTTP %d", i, status[i])
		}
		if ids[i] == "" || ids[i] != ids[0] {
			t.Fatalf("racer %d got job id %q, racer 0 got %q — idempotency key split", i, ids[i], ids[0])
		}
	}
	if created != 1 {
		t.Errorf("%d racers got 201 Created, want exactly 1", created)
	}
	if jobs := svc.List(); len(jobs) != 1 {
		t.Errorf("%d job records on disk, want 1", len(jobs))
	}
}

// TestSSEPingKeepalive shrinks the ping interval and holds an idle stream (a
// queued job on a serve-only server emits no events): the connection must
// carry ": ping" comment frames at the cadence, and because comments bypass
// the hub's buffers entirely, the hub must record zero drops however long the
// stream idles.
func TestSSEPingKeepalive(t *testing.T) {
	old := ssePingInterval
	ssePingInterval = 20 * time.Millisecond
	defer func() { ssePingInterval = old }()

	svc, ts := newTestServer(t, t.TempDir(), Config{Workers: -1})
	job, resp := postJob(t, ts, JobSpec{System: "multigpu", ThermalGrid: 16, Steps: 5, Runs: 1, CompactSteps: 100})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}

	ctx, cancel := testContext(t, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", stream.StatusCode)
	}

	pings := 0
	sc := bufio.NewScanner(stream.Body)
	deadline := time.After(3 * time.Second)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
read:
	for pings < 3 {
		select {
		case line, ok := <-lines:
			if !ok {
				break read
			}
			if strings.HasPrefix(line, ": ping") {
				pings++
			}
		case <-deadline:
			break read
		}
	}
	if pings < 3 {
		t.Fatalf("idle stream carried %d pings, want >= 3", pings)
	}
	if drops := svc.hub.Dropped(job.ID); drops != 0 {
		t.Errorf("hub recorded %d drops on an idle pinged stream, want 0", drops)
	}
}
