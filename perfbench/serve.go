package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridbcast/internal/service"
)

// sendAll sends every op once over the target's connections, failing on
// the first non-2xx response.
func sendAll(t *target, ops []op) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(t.clients))
	for c := range t.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				status, err := t.do(c, &ops[i], &buf, "")
				if err == nil && status/100 != 2 {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err != nil {
					errs[c] = fmt.Errorf("warm %s: %w", ops[i].body, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func warmOps(in *inputs) []op {
	ops := make([]op, len(in.warm))
	for i, req := range in.warm {
		ops[i] = planOp(req)
	}
	return ops
}

func serviceSpecs(plats []platform) []service.PlatformSpec {
	specs := make([]service.PlatformSpec, len(plats))
	for i, p := range plats {
		specs[i] = service.PlatformSpec{Name: p.name, Source: p.source}
	}
	return specs
}

// Shares of the measured time of an open-loop run: the max-rate step
// search, each further fixed rate, and the nominal rate (the rest); the
// length of one search step; and the most time, as a share of the
// measured time, that re-runs of contended nominal segments may add.
const (
	searchShare = 0.5
	fixedShare  = 0.05
	stepLen     = 600 * time.Millisecond
	rerunShare  = 0.25
)

// The max-rate staircase's first and finest step factors.
const (
	searchUp   = 1.25
	searchFine = 1.04
)

// A nominal segment, or a missed step of the max-rate search, is run up
// to maxTries times while more than maxForeign of the host's CPU went to
// other processes or to steal during it.
const (
	maxTries   = 3
	maxForeign = 0.1
)

// runServing measures a serving workload against a gridbcastd child.
func runServing(cfg config, in *inputs, dir string, m *measured) error {
	w := cfg.w
	// The load generator's own collections would delay sends; its heap is
	// small, so collect rarely.
	debug.SetGCPercent(800)
	args := []string{"-cache-cap", strconv.Itoa(w.cacheCap)}
	for _, p := range in.platforms {
		args = append(args, "-platform", p.name+"="+p.source)
	}
	warm := warmOps(in)

	// Set-up is launch until ready: /healthz answers and the warm set is
	// resident. It is repeated and the median reported. The nominal load
	// is split evenly over the launches: each daemon, once set up, carries
	// its share of the nominal pass before its peak resident set is read,
	// so every reading of peak_rss_mb has seen timed traffic. The last
	// daemon stays up for the fixed rates and the step search.
	var d *daemon
	var t *target
	defer func() {
		if t != nil {
			t.close()
		}
		if d != nil {
			d.stop()
		}
	}()
	or := newOracle(cfg.seed, w.oracleEvery)
	s := &stream{ops: in.stream}
	nominal := cfg.share(1)
	if w.rate > 0 {
		nominal = cfg.share(1 - searchShare - fixedShare*float64(len(w.fixedRates)))
	}
	seg := pass{conns: w.conns, rate: w.rate, dur: nominal / time.Duration(cfg.setupReps),
		check: or.check, reloadEvery: w.reloadEvery}
	var passes []passResult
	var setups, hwms, p50s, lat, lag []float64
	var cpu, elapsed, rerun time.Duration
	var ok int64
	var reruns int
	var foreigns []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		if d != nil {
			t.close()
			d.stop()
			d, t = nil, nil
		}
		m.host.sample()
		start := time.Now()
		var err error
		if d, err = startDaemon(cfg.daemon, filepath.Join(dir, "gridbcastd.log"), args); err != nil {
			return err
		}
		if err := d.waitReady(60 * time.Second); err != nil {
			return err
		}
		t = newTarget(d.addr, w.conns)
		if err := sendAll(t, warm); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())

		// A segment run while other processes or the hypervisor took more
		// than maxForeign of the host's CPU is run again, up to maxTries
		// times and while the run's re-run allowance lasts; the least
		// contended attempt is kept. Every attempt's operations count as
		// attempted.
		pid := d.cmd.Process.Pid
		var r passResult
		var rcpu time.Duration
		least := math.Inf(1)
		for try := 0; try < maxTries; try++ {
			c, err := startContention(pid)
			if err != nil {
				return err
			}
			cpu0, err := procCPU(pid)
			if err != nil {
				return err
			}
			a := seg.run(t, s)
			m.host.sample()
			cpu1, err := procCPU(pid)
			if err != nil {
				return err
			}
			foreign, err := c.share()
			if err != nil {
				return err
			}
			passes = append(passes, a)
			if foreign < least {
				r, rcpu, least = a, cpu1-cpu0, foreign
			}
			if foreign <= maxForeign || rerun+seg.dur > cfg.share(rerunShare) {
				break
			}
			rerun += a.elapsed
			reruns++
		}
		foreigns = append(foreigns, 100*least)
		// Memory is read after the nominal load, before the step search
		// overloads the daemon on purpose. Collection timing moves a
		// single peak by up to ~10%, hence the median over the launches.
		hwm, err := procHWM(pid)
		if err != nil {
			return err
		}
		hwms = append(hwms, hwm)
		p50s = append(p50s, r.windowP50s()...)
		lat, lag = append(lat, r.lat...), append(lag, r.lag...)
		cpu += rcpu
		elapsed += r.elapsed
		ok += r.ok()
	}
	m.values["setup_s"] = median(setups)
	m.values["peak_rss_mb"] = median(hwms)
	throughput := float64(ok) / elapsed.Seconds()
	m.values["throughput_rps"] = throughput
	tail := summarize(lat, 0.99)
	// An open loop's latency_p50_us is the median of its windows' p50s, so
	// that a stall, which delays every request due during it, moves only
	// the windows it falls in. A closed loop sends nothing while it waits,
	// so a stall delays few of its requests, and the p50 over all of them
	// is the steadier figure: its build times spread widely, so the p50
	// of a window of ~200 builds varies more than the p50 of them all.
	m.values["latency_p50_us"] = median(p50s)
	if w.rate == 0 {
		m.values["latency_p50_us"] = tail.p50
	}
	m.values["server_cpu_us_per_op"] = float64(cpu.Microseconds()) / float64(max(ok, 1))
	logf("  nominal %s: %.0f ops/s, latency p50 %.0f us (median of %d windows; pooled %.0f us), p90 %.0f us, p%.4g %.0f us (n=%d), lag p99 %.0f us",
		loopName(w), throughput, median(p50s), len(p50s), tail.p50, summarize(lat, 0.90).tail,
		100*tail.tailQ, tail.tail, tail.n, summarize(lag, 0.99).tail)
	logf("  per launch: setup (s) %.3f, peak rss (MB) %.1f, foreign CPU (%%) %.0f; %d contended segments re-run",
		setups, hwms, foreigns, reruns)

	if w.rate == 0 {
		// A closed loop runs at the system's ceiling: its completion rate
		// is the highest rate it sustains.
		m.values["max_rate_rps"] = throughput
	} else {
		for _, rate := range w.fixedRates {
			r := pass{conns: w.conns, rate: rate, dur: cfg.share(fixedShare), check: or.check}.run(t, s)
			m.host.sample()
			passes = append(passes, r)
			d := summarize(r.lat, 0.99)
			logf("  fixed %.0f/s: p50 %.0fus, p%.4g %.0fus (n=%d)", rate, d.p50, 100*d.tailQ, d.tail, d.n)
		}
		searchDur := cfg.share(searchShare)
		stepDur := min(stepLen, searchDur)
		contended := 0
		var stepForeign []float64
		var procErr error
		searchEnd := time.Now().Add(searchDur)
		more := func() bool { return time.Until(searchEnd) >= stepDur }
		pid := d.cmd.Process.Pid
		step := func(rate float64) (bool, dist) {
			// A miss while other processes or the hypervisor took more
			// than maxForeign of the host's CPU does not count: the step
			// is run again, up to maxTries times in all, time allowing.
			var ok bool
			var d dist
			for try := 0; try < maxTries && (try == 0 || more()); try++ {
				c, err := startContention(pid)
				if err != nil {
					procErr = err
					return false, d
				}
				r := pass{conns: w.conns, rate: rate, dur: stepDur}.run(t, s)
				foreign, err := c.share()
				if err != nil {
					procErr = err
					return false, d
				}
				passes = append(passes, r)
				stepForeign = append(stepForeign, 100*foreign)
				time.Sleep(20 * time.Millisecond) // let the daemon's queues drain between steps
				m.host.sample()
				if ok, d = sustained(r, w.limit); ok || foreign <= maxForeign {
					break
				}
				contended++
			}
			return ok, d
		}
		best, steps := staircase(step, w.searchFrom, searchUp, searchFine, w.rate, more)
		if procErr != nil {
			return procErr
		}
		logf("  max-rate staircase (limit p99 <= %v): %v", w.limit, steps)
		logf("  %d misses under contention re-run; foreign CPU per try (%%): %.0f", contended, stepForeign)
		m.values["max_rate_rps"] = best
	}
	for _, p := range passes {
		m.attempted += p.attempted
		m.failed += p.failed
		m.notes = append(m.notes, p.errs...)
	}
	n, bad := or.verify(in.platforms)
	for _, b := range bad {
		m.fail("oracle: %s", b)
	}
	logf("  oracle: %d sampled responses checked, %d mismatches", n, len(bad))
	if n == 0 {
		m.fail("oracle: no response was sampled")
	}
	m.values["success_frac"] = float64(m.attempted-m.failed) / float64(max(m.attempted, 1))
	return nil
}

func loopName(w *workload) string {
	if w.rate == 0 {
		return fmt.Sprintf("closed loop, %d clients", w.conns)
	}
	return fmt.Sprintf("open loop at %.0f/s", w.rate)
}
