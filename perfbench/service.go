package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"tap25d"
	"tap25d/internal/service"
)

// serviceSpec defines the open-loop service workload: small placement jobs
// arriving on a seeded schedule at a fixed mean rate, each polled to its end.
type serviceSpec struct {
	job service.JobSpec
	// rate is the mean arrival rate in jobs per second, about half of what
	// one worker drains on a 2-core host.
	rate float64
	// poll is the status-poll cadence of every open job.
	poll time.Duration
	// ckptEvery is the service's checkpoint cadence in SA steps; below the
	// job's step budget, so every job writes at least one snapshot.
	ckptEvery int
}

func defaultServiceSpec() serviceSpec {
	return serviceSpec{
		// The load driver's default job (service.RunLoad).
		job:       service.JobSpec{System: "multigpu", ThermalGrid: 16, Steps: 20, Runs: 1, CompactSteps: 400},
		rate:      10,
		poll:      20 * time.Millisecond,
		ckptEvery: 10,
	}
}

func (s serviceSpec) workload() workload {
	return workload{
		name: "service-open-loop",
		why: "in-process service on a loopback listener fed by open-loop arrivals: validation, " +
			"seal and fsync, lease claim, queue wait and record finalize dominate",
		setupOnce: s.setupOnce, measure: s.measure, trace: s.trace,
	}
}

// server is a service behind an HTTP listener on the loopback interface.
type server struct {
	svc    *service.Service
	http   *http.Server
	base   string
	served chan struct{}
}

func startServer(dir string, o *tap25d.Observer, ckptEvery int) (*server, error) {
	svc, err := service.New(service.Config{DataDir: dir, CheckpointEvery: ckptEvery, Observer: o})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc.Start()
	s := &server{svc: svc, http: &http.Server{Handler: service.Handler(svc)},
		base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	go func() {
		defer close(s.served)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop closes the listener, waits for in-flight requests and drains the
// service's workers.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.served
	return errors.Join(err, s.svc.Drain(ctx))
}

// client talks to a server over at most nproc connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	n := runtime.NumCPU()
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// submit posts a job; a refusal (429, 503) or any other non-2xx is an error.
func (c *client) submit(spec service.JobSpec) (*service.Job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return decodeJob(resp, http.StatusCreated)
}

func (c *client) get(id string) (*service.Job, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	return decodeJob(resp, http.StatusOK)
}

func decodeJob(resp *http.Response, want int) (*service.Job, error) {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var j service.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, fmt.Errorf("decoding job: %w", err)
	}
	return &j, nil
}

// setupOnce times a fresh service until its first job is done: boot on an
// empty data directory, the listener, and one job from submit to the
// server-side FinishedAt.
func (s serviceSpec) setupOnce(seed int64, dir string) (float64, error) {
	t0 := time.Now()
	srv, err := startServer(filepath.Join(dir, "setup"), nil, s.ckptEvery)
	if err != nil {
		return 0, err
	}
	c := newClient(srv.base)
	defer c.close()
	spec := s.job
	spec.Seed = pick(serviceSeeds, seed, 1)[0]
	job, err := c.submit(spec)
	for err == nil && !job.Terminal() {
		time.Sleep(5 * time.Millisecond)
		job, err = c.get(job.ID)
	}
	err = errors.Join(err, srv.stop())
	if err != nil {
		return 0, err
	}
	if job.State != service.StateDone || job.FinishedAt == nil {
		return 0, fmt.Errorf("set-up job ended %s: %s", job.State, job.Error)
	}
	return job.FinishedAt.Sub(t0.Round(0)).Seconds(), nil
}

// sentJob is one arrival of the open loop.
type sentJob struct {
	due, sent time.Time // monotonic
	submitRTT time.Duration
	job       *service.Job // the submit response, then the terminal record
}

// drive is one open-loop session against a fresh server.
type drive struct {
	jobs   []*sentJob
	gets   []time.Duration
	boot   time.Duration
	ctr    tap25d.EvalCounters // service-level counters
	phases phaseTotals         // Observer phase totals (traced drives only)
}

// arrivals returns the send offsets of a secs-second session: a fixed mean
// rate with each gap drawn uniformly from [0.5, 1.5] mean gaps.
func (s serviceSpec) arrivals(seed int64, secs float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var offs []time.Duration
	var at float64
	for {
		at += (0.5 + rng.Float64()) / s.rate
		if at > secs {
			return offs
		}
		offs = append(offs, time.Duration(at*float64(time.Second)))
	}
}

// run submits the session's jobs on schedule from one goroutine while this
// one polls every open job until all are terminal. Refused submits and
// transport errors count as failed operations.
func (s serviceSpec) run(dir string, seed int64, secs float64, o *tap25d.Observer, t *tally) (*drive, error) {
	offs := s.arrivals(seed, secs)
	if len(offs) == 0 {
		return nil, fmt.Errorf("a %g s session at %g jobs/s has no arrivals", secs, s.rate)
	}
	seeds := pick(serviceSeeds, seed, len(offs))
	specs := make([]service.JobSpec, len(offs))
	for i := range specs {
		specs[i] = s.job
		specs[i].Seed = seeds[i]
		specs[i].IdempotencyKey = fmt.Sprintf("bench-%d-%d", seed, i)
	}
	t0 := time.Now()
	srv, err := startServer(dir, o, s.ckptEvery)
	if err != nil {
		return nil, err
	}
	d := &drive{boot: time.Since(t0)}
	c := newClient(srv.base)
	defer c.close()

	submitted := make(chan *sentJob, len(offs)) // one slot per arrival: the sender never blocks
	go func() {
		defer close(submitted)
		start := time.Now()
		for i, off := range offs {
			sj := &sentJob{due: start.Add(off)}
			time.Sleep(time.Until(sj.due))
			sj.sent = time.Now()
			job, err := c.submit(specs[i])
			sj.submitRTT = time.Since(sj.sent)
			if err != nil {
				t.record(fmt.Sprintf("submit %d", i), err)
				continue
			}
			sj.job = job
			submitted <- sj
		}
	}()

	var open []*sentJob
	tick := time.NewTicker(s.poll)
	defer tick.Stop()
	deadline := time.After(time.Duration(secs*float64(time.Second)) + 60*time.Second)
	senderDone := false
	for !senderDone || len(open) > 0 {
		select {
		case sj, ok := <-submitted:
			if !ok {
				senderDone = true
				submitted = nil
				continue
			}
			d.jobs = append(d.jobs, sj)
			open = append(open, sj)
		case <-tick.C:
			still := open[:0]
			for _, sj := range open {
				g0 := time.Now()
				job, err := c.get(sj.job.ID)
				d.gets = append(d.gets, time.Since(g0))
				if err != nil {
					t.record("poll "+sj.job.ID, err)
					sj.job = nil
					continue
				}
				sj.job = job
				if !job.Terminal() {
					still = append(still, sj)
				}
			}
			open = still
		case <-deadline:
			err := srv.stop()
			for submitted != nil {
				if _, ok := <-submitted; !ok {
					submitted = nil // the sender has returned
				}
			}
			return nil, errors.Join(fmt.Errorf("%d jobs still open at the deadline", len(open)), err)
		}
	}
	d.ctr = srv.svc.Counters()
	if o != nil {
		d.phases = phaseTotalsOf(o)
	}
	return d, srv.stop()
}

// jobStats are the per-job splits of the done jobs of a drive.
type jobStats struct {
	latency, late, ingress, queue, exec []time.Duration
	peaks, wls, corners                 []float64
	ctr                                 tap25d.EvalCounters
	done                                int
}

// check is the correctness gate of a drive: every submitted job ends done
// with a legal placement and a finite peak, and its corner screen rises with
// power with the 1.0× corner equal to the job's peak. It also splits each
// job's latency, from its due send time to the server-side FinishedAt, into
// generator lateness, ingress, queue wait and execution.
func (s serviceSpec) check(d *drive, t *tally) (*jobStats, error) {
	sys, err := s.job.LoadSystem()
	if err != nil {
		return nil, err
	}
	st := &jobStats{}
	for i, sj := range d.jobs {
		err := s.checkJob(sys, sj, st)
		t.record(fmt.Sprintf("job %d", i), err)
	}
	if st.done == 0 {
		return nil, errors.New("no job completed")
	}
	return st, nil
}

func (s serviceSpec) checkJob(sys *tap25d.System, sj *sentJob, st *jobStats) error {
	j := sj.job
	switch {
	case j == nil:
		return errors.New("job status unknown")
	case j.State != service.StateDone:
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	case j.Result == nil || j.StartedAt == nil || j.FinishedAt == nil:
		return fmt.Errorf("job %s is done without a result or timestamps", j.ID)
	}
	r := j.Result
	if math.IsNaN(r.PeakC) || math.IsInf(r.PeakC, 0) {
		return fmt.Errorf("job %s peak is %v", j.ID, r.PeakC)
	}
	if err := sys.CheckPlacement(r.Placement); err != nil {
		return fmt.Errorf("job %s placement: %w", j.ID, err)
	}
	// The screen runs in the benchmark client, not in the service: on this
	// workload corners_s times the tap25d library call alone.
	t0 := time.Now()
	fields, err := tap25d.EvaluateScenarios(sys, r.Placement, cornerScales, tap25d.Options{ThermalGrid: s.job.ThermalGrid})
	corners := time.Since(t0)
	if err != nil {
		return fmt.Errorf("job %s corner screen: %w", j.ID, err)
	}
	peaks := make([]float64, len(fields))
	for c, f := range fields {
		peaks[c] = f.PeakC
	}
	if err := checkCorners(peaks, r.PeakC); err != nil {
		return fmt.Errorf("job %s: %w", j.ID, err)
	}
	due, sent := sj.due.Round(0), sj.sent.Round(0)
	st.latency = append(st.latency, j.FinishedAt.Sub(due))
	st.late = append(st.late, sj.sent.Sub(sj.due))
	st.ingress = append(st.ingress, j.SubmittedAt.Sub(sent))
	st.queue = append(st.queue, j.StartedAt.Sub(j.SubmittedAt))
	exec := j.FinishedAt.Sub(*j.StartedAt)
	st.exec = append(st.exec, exec)
	st.peaks = append(st.peaks, r.PeakC)
	st.wls = append(st.wls, r.WirelengthMM)
	st.corners = append(st.corners, corners.Seconds())
	st.ctr.Merge(r.Metrics)
	st.done++
	return nil
}

// measure is the untraced run: set-up in fresh processes, then one
// open-loop session of the run's length.
func (s serviceSpec) measure(cfg runConfig, t *tally) (metrics, error) {
	setup, err := medianSetup(cfg, t)
	if err != nil {
		return nil, err
	}
	d, err := s.run(filepath.Join(cfg.dir, "svc"), cfg.seed, cfg.seconds, nil, t)
	if err != nil {
		return nil, err
	}
	st, err := s.check(d, t)
	if err != nil {
		return nil, err
	}
	rates := make([]float64, len(st.latency))
	for i, l := range st.latency {
		rates[i] = float64(s.job.Steps*s.job.Runs) / l.Seconds()
	}
	printSamples("sa_steps_per_s", rates)
	printSamples("corners_s", st.corners)
	m := metrics{}
	m.set("sa_steps_per_s", median(rates), "1/s")
	m.set("peak_c", median(st.peaks), "C")
	m.set("setup_s", setup, "s")
	m.set("corners_s", median(st.corners), "s")
	m.set("rss_mb", peakRSSMB(), "MB")
	return m, nil
}

// trace runs an untraced session and then a traced one (the service gets an
// Observer, which also turns on its per-job trace files), each for half the
// run. The per-layer split comes from the traced session.
func (s serviceSpec) trace(cfg runConfig, t *tally) (metrics, error) {
	half := cfg.seconds / 2
	plain, err := s.run(filepath.Join(cfg.dir, "svc-plain"), cfg.seed, half, nil, t)
	if err != nil {
		return nil, err
	}
	plainSt, err := s.check(plain, t)
	if err != nil {
		return nil, err
	}
	d, err := s.run(filepath.Join(cfg.dir, "svc-traced"), cfg.seed, half, tap25d.NewObserver(), t)
	if err != nil {
		return nil, err
	}
	st, err := s.check(d, t)
	if err != nil {
		return nil, err
	}

	l := newLayerMetrics()
	ph := d.phases
	l.put("placer.self_ms", millis(ph.execute-ph.solve-ph.route-ph.surrogate-ph.ckpt))
	l.put("placer.steps", float64(s.job.Steps*s.job.Runs*st.done))
	l.put("placer.checkpoint_ms", millis(ph.ckpt))
	l.put("placer.checkpoints", float64(ph.ckpts))
	l.put("placer.wirelength_mm", median(st.wls))
	l.put("surrogate.self_ms", millis(ph.surrogate))
	putCounters(l, st.ctr)
	l.put("thermal.solve_ms", millis(ph.solve-ph.assemble))
	l.put("thermal.assemble_ms", millis(ph.assemble))
	l.put("sparse.cg_ms_per_iter", ratio(millis(ph.solve-ph.assemble), float64(st.ctr.CGIterations)))
	l.put("route.self_ms", millis(ph.route))

	var rtts []time.Duration
	for _, sj := range d.jobs {
		rtts = append(rtts, sj.submitRTT)
	}
	l.put("service.job_p50_ms", millis(durQuantile(st.latency, 0.5)))
	l.put("service.job_p90_ms", millis(durQuantile(st.latency, 0.9)))
	l.put("service.submit_p50_ms", millis(durQuantile(rtts, 0.5)))
	l.put("service.get_p50_ms", millis(durQuantile(d.gets, 0.5)))
	l.put("service.ingress_p50_ms", millis(durQuantile(st.ingress, 0.5)))
	l.put("service.queue_wait_p50_ms", millis(durQuantile(st.queue, 0.5)))
	l.put("service.exec_p50_ms", millis(durQuantile(st.exec, 0.5)))
	l.put("service.boot_ms", millis(d.boot))
	l.put("service.jobs_done", float64(st.done))
	l.put("service.checkpoints", float64(st.ctr.Checkpoints))
	l.put("service.leases_acquired", float64(d.ctr.JobsLeasesAcquired))
	l.put("service.events_dropped", float64(d.ctr.JobsEventsDropped))
	l.put("service.shed", float64(d.ctr.JobsShed))
	l.put("loadgen.late_p50_ms", millis(durQuantile(st.late, 0.5)))
	l.put("loadgen.late_max_ms", millis(durQuantile(st.late, 1)))

	total, split := sum(st.latency), sum(st.late)+sum(st.ingress)+sum(st.queue)+sum(st.exec)
	l.put("trace.coverage", ratio(float64(split), float64(total)))
	l.put("trace.uncovered_ms", millis(total-split))
	l.put("trace.overhead_pct", 100*ratio(float64(mean(st.latency)-mean(plainSt.latency)), float64(mean(plainSt.latency))))
	l.put("failed_frac", t.failedFrac())
	fmt.Printf("uncovered: none by construction; latency = lateness + ingress + queue wait + exec over %d jobs\n", st.done)
	return l.m, nil
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}
