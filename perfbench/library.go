package main

import (
	"fmt"
	"math"
	"os"
	"syscall"
	"time"

	gridbcast "gridbcast"
	"gridbcast/internal/service"
)

// predictTol is the documented analytic-vs-executed bound on an ideal
// network (DESIGN.md §7: predictions match the executor to ~1e-8).
const predictTol = 1e-8

// librarySetup loads every generated platform into a caching Session and
// plans the warm set.
func librarySetup(in *inputs, cacheCap int) (map[string]*gridbcast.Session, error) {
	sessions := map[string]*gridbcast.Session{}
	for _, p := range in.platforms {
		g, err := service.LoadGridSource(p.source)
		if err != nil {
			return nil, err
		}
		s, err := gridbcast.NewSession(g, gridbcast.WithPlanCache(cacheCap))
		if err != nil {
			return nil, err
		}
		s.Fingerprint()
		sessions[p.name] = s
	}
	for i := range in.warm {
		opts, err := reqOptions(&in.warm[i])
		if err != nil {
			return nil, err
		}
		if _, err := sessions[in.warm[i].Platform].Plan(gridbcast.NewRequest(opts...)); err != nil {
			return nil, err
		}
	}
	return sessions, nil
}

// checkExec applies the execution oracle: on an ideal network the executed
// makespan must match the prediction; under jitter or the generated faults
// (link degradation and message loss with retries, never a killed node)
// the run must still reach every one of the grid's total nodes.
func checkExec(o *op, pl *gridbcast.Plan, res *gridbcast.Result, total int) error {
	if o.net.Jitter == 0 && o.net.Faults == nil {
		if gap := math.Abs(res.Makespan-pl.Makespan) / pl.Makespan; !(gap <= predictTol) {
			return fmt.Errorf("executed makespan %.17g vs predicted %.17g (gap %.3g) for %s",
				res.Makespan, pl.Makespan, gap, o.body)
		}
		return nil
	}
	if res.NodesReached != total {
		return fmt.Errorf("execution reached %d of %d nodes for %s", res.NodesReached, total, o.body)
	}
	return nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refEvery is how often runLibrary samples the reference kernel.
const refEvery = 250 * time.Millisecond

// runLibrary measures plan-execute: one goroutine, closed loop, each
// operation a Session.Plan followed by Session.Execute.
func runLibrary(cfg config, in *inputs, m *measured) error {
	w := cfg.w
	var sessions map[string]*gridbcast.Session
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		m.host.sample()
		start := time.Now()
		var err error
		if sessions, err = librarySetup(in, w.cacheCap); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m.values["setup_s"] = median(setups)

	reqs := make([]gridbcast.Request, len(in.stream))
	for i := range in.stream {
		opts, err := reqOptions(&in.stream[i].req)
		if err != nil {
			return err
		}
		reqs[i] = gridbcast.NewRequest(opts...)
	}
	// The reference kernel is sampled every refEvery; its bursts are left
	// out of the measured time and CPU.
	var lat []float64
	var paused time.Duration
	cpu0, refCPU0 := selfCPU(), m.host.cpu
	start := time.Now()
	nextRef := start
	for i := 0; time.Since(start)-paused < cfg.share(1); i++ {
		if time.Now().After(nextRef) {
			paused += m.host.sample()
			nextRef = time.Now().Add(refEvery)
		}
		o := &in.stream[i%len(in.stream)]
		sess := sessions[o.req.Platform]
		t0 := time.Now()
		pl, err := sess.Plan(reqs[i%len(reqs)])
		var res *gridbcast.Result
		if err == nil {
			res, err = sess.Execute(pl, o.net)
		}
		t1 := time.Now()
		m.attempted++
		if err == nil {
			err = checkExec(o, pl, res, sess.Grid().TotalNodes())
		}
		if err != nil {
			m.fail("%v", err)
			continue
		}
		lat = append(lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
	}
	elapsed := time.Since(start) - paused
	cpu := selfCPU() - cpu0 - (m.host.cpu - refCPU0)
	ok := m.attempted - m.failed
	d := summarize(lat, 0.99)
	m.values["throughput_rps"] = float64(ok) / elapsed.Seconds()
	m.values["max_rate_rps"] = m.values["throughput_rps"]
	m.values["latency_p50_us"] = d.p50
	m.values["server_cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(max(ok, 1))
	hwm, err := procHWM(os.Getpid())
	if err != nil {
		return err
	}
	m.values["peak_rss_mb"] = hwm
	m.values["success_frac"] = float64(ok) / float64(max(m.attempted, 1))
	logf("  closed loop, 1 goroutine: %.1f ops/s, latency p50 %.0f us, p90 %.0f us, p%.4g %.0f us (n=%d)",
		m.values["throughput_rps"], d.p50, summarize(lat, 0.90).tail, 100*d.tailQ, d.tail, d.n)
	return nil
}
