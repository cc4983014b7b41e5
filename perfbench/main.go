// Command perfbench is the repository benchmark. It times three workloads end
// to end — two paper-grid placement flows, one on each side of the thermal
// solver's Jacobi/multigrid switch, and an open-loop placement service — checks
// that every output is correct, and in traced mode splits each workload's wall
// clock into per-layer self-times, measured from outside the program by timing
// calls into each module's public functions.
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload e1-surrogate-g64 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones. A failed correctness check makes the command
// exit with status 1 after printing the result. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to figures.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts the operations a run attempted and the ones that failed or
// failed a correctness check. Every failure is also reported on stderr. It is
// safe for concurrent use.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// record counts one operation; err marks it failed.
func (t *tally) record(op string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op, err)
	}
}

func (t *tally) failedFrac() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	// dir is this process's scratch directory (removed on exit).
	dir string
	// setup measures set-up number i of the run in a fresh process and
	// returns its seconds.
	setup func(i int) (float64, error)
}

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	// setupOnce performs the workload's set-up once, in the calling process,
	// and returns its wall clock in seconds.
	setupOnce func(seed int64, dir string) (float64, error)
	// measure runs the untraced workload and returns the end-to-end metrics.
	measure func(cfg runConfig, t *tally) (metrics, error)
	// trace runs the traced workload and returns the per-layer metrics.
	trace func(cfg runConfig, t *tally) (metrics, error)
}

// Set-up is measured in fresh processes, at least setupMinRepeats times and
// until setupBudget has passed, at most setupMaxRepeats times; setup_s
// reports the median. A short set-up (the service boots in about 60 ms) is
// measured more often than a long one.
const (
	setupMinRepeats = 5
	setupMaxRepeats = 25
	setupBudget     = 2 * time.Second
)

func workloads() []workload {
	return []workload{e1Spec().workload(), cpudramSpec().workload(), defaultServiceSpec().workload()}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: e1-surrogate-g64, cpudram-exact-g128 or service-open-loop")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer breakdown")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for scratch files")
	setupChild := fs.Bool("setup-child", false, "measure one set-up and print its seconds (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *setupChild {
		s, err := w.setupOnce(*seed, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Fprintf(stdout, "setup_s %s\n", strconv.FormatFloat(s, 'g', -1, 64))
		return 0
	}

	st := newStamp(w.name, *seed, *trace, *seconds, dir)
	if b, err := json.Marshal(st); err == nil {
		fmt.Fprintf(stdout, "stamp %s\n", b)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, dir: dir,
		setup: func(i int) (float64, error) { return setupInChild(w.name, setupSeed(*seed, i), *workdir) }}
	t := &tally{}
	var m metrics
	if *trace == 0 {
		m, err = w.measure(cfg, t)
	} else {
		m, err = w.trace(cfg, t)
	}
	if err != nil {
		t.record("workload", err)
	}
	if t.attempted == 0 {
		t.record("workload", errors.New("no operation attempted"))
	}
	if m == nil {
		m = metrics{}
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// setupInChild runs this executable in --setup-child mode, so the set-up is
// measured in a fresh process: no warm caches, no process-wide multigrid
// hierarchy cache, no paged-in code.
func setupInChild(name string, seed int64, workdir string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "--setup-child", "--workload", name,
		"--seed", strconv.FormatInt(seed, 10), "--workdir", workdir)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "setup_s "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, errors.New("setup child printed no setup_s line")
}

// setupSeed is the --seed of set-up i of run seed: each set-up of a run
// takes the next seed of the workload's pool, so setup_s is a median over
// seeds as well as over processes.
func setupSeed(seed int64, i int) int64 { return seed*setupMaxRepeats + int64(i) }

// medianSetup measures set-up repeatedly and returns the median.
func medianSetup(cfg runConfig, t *tally) (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < setupMinRepeats || len(xs) < setupMaxRepeats && time.Since(start) < setupBudget {
		s, err := cfg.setup(len(xs))
		t.record("setup", err)
		if err != nil {
			return 0, err
		}
		xs = append(xs, s)
	}
	printSamples("setup_s", xs)
	return median(xs), nil
}

// printSamples reports the quartiles of a sampled metric on stdout, before
// the result line.
func printSamples(name string, xs []float64) {
	fmt.Printf("samples %s: n=%d p25=%.6g p50=%.6g p75=%.6g\n",
		name, len(xs), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(q*float64(len(s)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
