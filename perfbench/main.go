// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints, as its last line, a JSON object
// with every metric by name and unit plus the correctness verdict:
//
//	perfbench -workload hit-serve -seed 1 -seconds 10 -trace 0 \
//	    -daemon path/to/gridbcastd -work path/to/scratch
//
// With -trace 0 it starts gridbcastd as a child process and drives it over
// loopback (or, for plan-execute, calls the library in-process) and reports
// the end-to-end metrics. With -trace 1 it replays the same seeded inputs
// in-process, records spans around the calls into each layer, writes them
// to a span file and reports the per-layer metrics. run.sh builds both
// binaries from the enclosing checkout and runs this command.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name the metrics untraced and traced runs report,
// in BENCHMARK.json's order; units gives each one's unit.
var endToEnd = []string{
	"setup_s", "throughput_rps", "max_rate_rps", "latency_p50_us",
	"server_cpu_us_per_op", "peak_rss_mb", "success_frac",
}

var perLayer = []string{
	"loadgen.lag_p99_us",
	"gridbcastd.roundtrip_p50_us", "gridbcastd.self_p50_us", "gridbcastd.conns_opened",
	"service.handler_p50_us", "service.self_p50_us", "service.decode_p50_us", "service.encode_p50_us",
	"service.resp_bytes", "service.allocs_per_op", "service.addup_ratio",
	"gridbcast.planinfo_hit_p50_us", "gridbcast.planinfo_built_p50_us", "gridbcast.schedules_per_plan",
	"plancache.hit_ratio", "plancache.evicted_per_kop", "plancache.collapsed_per_kop", "plancache.retained_kb_per_plan",
	"sched.problem_p50_us", "sched.schedule_p50_us", "sched.ladder_p50_ms", "sched.refine_p50_us", "sched.allocs_per_build",
	"topology.reload_ms", "topology.newsize_kb",
	"mpi.execute_p50_ms", "mpi.messages_per_exec", "mpi.retries_per_exec", "mpi.predict_exec_gap",
	"runtime.alloc_bytes_per_op", "runtime.gc_cycles_per_kop",
	"trace.overhead_pct",
}

var units = map[string]string{
	"setup_s": "s", "throughput_rps": "1/s", "max_rate_rps": "1/s",
	"latency_p50_us": "us", "server_cpu_us_per_op": "us",
	"peak_rss_mb": "MB", "success_frac": "ratio",

	"loadgen.lag_p99_us": "us", "gridbcastd.roundtrip_p50_us": "us", "gridbcastd.self_p50_us": "us",
	"gridbcastd.conns_opened": "count", "service.handler_p50_us": "us", "service.self_p50_us": "us",
	"service.decode_p50_us": "us", "service.encode_p50_us": "us", "service.resp_bytes": "bytes",
	"service.allocs_per_op": "count", "service.addup_ratio": "ratio",
	"gridbcast.planinfo_hit_p50_us": "us", "gridbcast.planinfo_built_p50_us": "us",
	"gridbcast.schedules_per_plan": "count", "plancache.hit_ratio": "ratio",
	"plancache.evicted_per_kop": "count", "plancache.collapsed_per_kop": "count",
	"plancache.retained_kb_per_plan": "KB", "sched.problem_p50_us": "us", "sched.schedule_p50_us": "us",
	"sched.ladder_p50_ms": "ms", "sched.refine_p50_us": "us", "sched.allocs_per_build": "count",
	"topology.reload_ms": "ms", "topology.newsize_kb": "KB", "mpi.execute_p50_ms": "ms", "mpi.messages_per_exec": "count",
	"mpi.retries_per_exec": "count", "mpi.predict_exec_gap": "ratio",
	"runtime.alloc_bytes_per_op": "bytes", "runtime.gc_cycles_per_kop": "count",
	"trace.overhead_pct": "%",
}

// setupReps is how many set-ups a run makes; setup_s is their median.
const setupReps = 5

// config is one run's settings.
type config struct {
	w         *workload
	seed      int64
	seconds   float64
	trace     bool
	setupReps int
	daemon    string // gridbcastd binary (serving workloads, untraced)
	work      string // per-run scratch directory for generated inputs
	spans     string // directory receiving span files
}

// measured accumulates a run's metrics, attempts and failures.
type measured struct {
	values    map[string]float64
	host      *hostSpeed
	attempted int64
	failed    int64
	notes     []string
}

func newMeasured() *measured {
	return &measured{values: map[string]float64{}, host: newHostSpeed()}
}

func (m *measured) fail(format string, args ...any) {
	m.failed++
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// logf writes a human-readable line to standard error.
func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	var cfg config
	var name string
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&name, "workload", "", "workload to run: hit-serve | build-serve | mixed-serve | plan-execute")
	fs.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 replays in-process with spans and reports per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", "", "gridbcastd binary")
	fs.StringVar(&cfg.work, "work", "", "scratch directory for generated inputs")
	fs.StringVar(&cfg.spans, "spans", "", "directory for span files (default: -work)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.setupReps = setupReps
	if cfg.w = findWorkload(name); cfg.w == nil {
		logf("perfbench: unknown workload %q", name)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run generates the workload's inputs and measures it.
func run(cfg config) (*result, error) {
	if cfg.work == "" {
		return nil, errors.New("-work is required")
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	if cfg.spans == "" {
		cfg.spans = cfg.work
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", cfg.w.name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := generate(cfg.w, cfg.seed, dir)
	if err != nil {
		return nil, err
	}
	if cfg.w.rate > 0 {
		reserveSleepers(cfg.w.conns)
	}
	m := newMeasured()
	start := time.Now()
	switch {
	case cfg.trace:
		err = runTraced(cfg, in, m)
	case cfg.w.library:
		err = runLibrary(cfg, in, m)
	default:
		if cfg.daemon == "" {
			return nil, errors.New("-daemon is required for serving workloads")
		}
		err = runServing(cfg, in, dir, m)
	}
	if err != nil {
		return nil, err
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	} else {
		m.host.scale(m, cfg.w.rate > 0)
	}
	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range names {
		v, ok := m.values[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
		logf("  %-34s %14s %s", n, strconv.FormatFloat(v, 'g', 6, 64), units[n])
	}
	for i, n := range m.notes {
		if i == 20 {
			logf("  ... %d more failures", len(m.notes)-i)
			break
		}
		logf("  FAILED: %s", n)
	}
	logf("perfbench: %s seed %d trace %v: %d attempted, %d failed, %.1fs",
		cfg.w.name, cfg.seed, cfg.trace, m.attempted, m.failed, time.Since(start).Seconds())
	return res, nil
}

// share converts a share of the run's measured time to a duration.
func (c config) share(f float64) time.Duration {
	return time.Duration(c.seconds * f * float64(time.Second))
}
