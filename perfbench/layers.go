package main

import "fmt"

// metricDef is one metric name with its unit and better direction.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change is rejected.
	bound float64
}

// endToEnd lists the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"sa_steps_per_s", "1/s", "higher", 0.25},
	{"peak_c", "C", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
	{"corners_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics a traced run reports, on every workload; a
// layer a workload does not exercise reports 0. They carry no bound.
var perLayer = []metricDef{
	{"placer.self_ms", "ms", "lower", 0},
	{"placer.steps", "count", "higher", 0},
	{"placer.accept_rate", "ratio", "higher", 0},
	{"placer.compact_ms", "ms", "lower", 0},
	{"placer.checkpoint_ms", "ms", "lower", 0},
	{"placer.checkpoints", "count", "lower", 0},
	{"placer.wirelength_mm", "mm", "lower", 0},
	{"surrogate.self_ms", "ms", "lower", 0},
	{"surrogate.prescreens", "count", "higher", 0},
	{"surrogate.rejects", "count", "higher", 0},
	{"surrogate.hit_rate", "ratio", "higher", 0},
	{"surrogate.audits", "count", "lower", 0},
	{"surrogate.refits", "count", "lower", 0},
	{"surrogate.drift_rms_c", "C", "lower", 0},
	{"thermal.solve_ms", "ms", "lower", 0},
	{"thermal.assemble_ms", "ms", "lower", 0},
	{"thermal.solves", "count", "lower", 0},
	{"thermal.assembles_full", "count", "lower", 0},
	{"thermal.assembles_delta", "count", "lower", 0},
	{"thermal.assembles_skip", "count", "higher", 0},
	{"sparse.cg_iters", "count", "lower", 0},
	{"sparse.cg_iters_per_solve", "count", "lower", 0},
	{"sparse.cg_ms_per_iter", "ms", "lower", 0},
	{"sparse.mg_cycles", "count", "lower", 0},
	{"sparse.mg_setups", "count", "lower", 0},
	{"sparse.mg_setups_per_solve", "ratio", "lower", 0},
	{"sparse.cg_retries", "count", "lower", 0},
	{"route.self_ms", "ms", "lower", 0},
	{"route.calls", "count", "lower", 0},
	{"tap25d.finalize_ms", "ms", "lower", 0},
	{"tap25d.scenarios_ms", "ms", "lower", 0},
	{"service.job_p50_ms", "ms", "lower", 0},
	{"service.job_p90_ms", "ms", "lower", 0},
	{"service.submit_p50_ms", "ms", "lower", 0},
	{"service.get_p50_ms", "ms", "lower", 0},
	{"service.ingress_p50_ms", "ms", "lower", 0},
	{"service.queue_wait_p50_ms", "ms", "lower", 0},
	{"service.exec_p50_ms", "ms", "lower", 0},
	{"service.boot_ms", "ms", "lower", 0},
	{"service.jobs_done", "count", "higher", 0},
	{"service.checkpoints", "count", "lower", 0},
	{"service.leases_acquired", "count", "lower", 0},
	{"service.events_dropped", "count", "lower", 0},
	{"service.shed", "count", "lower", 0},
	{"loadgen.late_p50_ms", "ms", "lower", 0},
	{"loadgen.late_max_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.uncovered_ms", "ms", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
}

// layerMetrics is a per-layer result with every perLayer metric at 0.
type layerMetrics struct{ m metrics }

func newLayerMetrics() layerMetrics {
	m := metrics{}
	for _, d := range perLayer {
		m.set(d.name, 0, d.unit)
	}
	return layerMetrics{m}
}

// put sets a perLayer metric; an unlisted name is a bug in the benchmark.
func (l layerMetrics) put(name string, v float64) {
	d, ok := l.m[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: %q is not a per-layer metric", name))
	}
	l.m.set(name, v, d.Unit)
}
