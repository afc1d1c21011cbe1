package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// target is a plan server reached over loopback TCP through a fixed set of
// keep-alive connections, one http.Client per connection.
type target struct {
	base    string
	clients []*http.Client
	dials   atomic.Int64
}

func newTarget(addr string, conns int) *target {
	t := &target{base: "http://" + addr}
	for i := 0; i < conns; i++ {
		tr := &http.Transport{
			DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
				t.dials.Add(1)
				return (&net.Dialer{}).DialContext(ctx, network, a)
			},
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}
		t.clients = append(t.clients, &http.Client{Transport: tr, Timeout: 60 * time.Second})
	}
	return t
}

func (t *target) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
}

// spanHeader carries "<round-trip span ID>/<request index>" to the traced
// in-process handler, which records its span as that span's child.
const spanHeader = "X-Perfbench-Span"

// do sends o on connection c and reads the whole response body into buf.
func (t *target) do(c int, o *op, buf *bytes.Buffer, spanTag string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, t.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanTag != "" {
		req.Header.Set(spanHeader, spanTag)
	}
	resp, err := t.clients[c].Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// stream hands out ops in order, cycling, across every pass of a run.
type stream struct {
	ops []op
	pos atomic.Int64
}

func (s *stream) claim() (int64, *op) {
	i := s.pos.Add(1) - 1
	return i, &s.ops[i%int64(len(s.ops))]
}

// pass is one timed load phase: closed loop when rate is 0 (each
// connection sends its next request when the previous one completes),
// otherwise open loop at rate requests/s, where request i is due at
// start + i/rate whether or not earlier ones have completed.
type pass struct {
	conns int
	rate  float64
	dur   time.Duration
	// check validates a 2xx response; returning false counts a failure.
	check func(idx int64, o *op, body []byte) bool
	tr    *tracer
	// reloadEvery > 0 (open loop only) sends a registry reload in place
	// of the first request due in each period of that length.
	reloadEvery time.Duration
}

// passResult is what a pass measured. Latencies are in microseconds from
// the due time (open loop) or the send (closed loop), successes only.
type passResult struct {
	rate              float64 // offered rate (0: closed loop)
	elapsed           time.Duration
	attempted, failed int64
	lat, lag          []float64
	// at is each lat sample's due time, in seconds from the pass start.
	at   []float64
	errs []string
}

func (r *passResult) ok() int64 { return r.attempted - r.failed }

func (r *passResult) throughput() float64 { return float64(r.ok()) / r.elapsed.Seconds() }

// run drives one pass against t, taking ops from s.
func (p pass) run(t *target, s *stream) passResult {
	var (
		mu   sync.Mutex
		res  passResult
		next atomic.Int64
	)
	start := time.Now()
	end := start.Add(p.dur)
	due := func(i int64) time.Time {
		return start.Add(time.Duration(float64(i) / p.rate * 1e9))
	}
	period := func(at time.Time) int64 {
		return int64(at.Sub(start) / p.reloadEvery)
	}
	var workers sync.WaitGroup
	for c := 0; c < p.conns; c++ {
		workers.Add(1)
		go func(c int) {
			defer workers.Done()
			var buf bytes.Buffer
			var lat, lag, at []float64
			var attempted, failed int64
			var errs []string
			for {
				var dueAt time.Time
				reload := false
				if p.rate > 0 {
					i := next.Add(1) - 1
					dueAt = due(i)
					if !dueAt.Before(end) {
						break
					}
					if p.reloadEvery > 0 {
						reload = i == 0 || period(dueAt) > period(due(i-1))
					}
					sleepUntil(dueAt)
				} else {
					dueAt = time.Now()
					if !dueAt.Before(end) {
						break
					}
				}
				sent := time.Now()
				idx, o := int64(-1), &reloadOp
				if !reload {
					idx, o = s.claim()
				}
				id, tag := p.tr.id(), ""
				if id != 0 {
					tag = fmt.Sprintf("%d/%d", id, idx)
				}
				status, err := t.do(c, o, &buf, tag)
				done := time.Now()
				p.tr.record(id, "gridbcastd.roundtrip", 0, idx, sent, done)
				attempted++
				switch {
				case err != nil:
					failed++
					errs = append(errs, err.Error())
				case status/100 != 2:
					failed++
					errs = append(errs, fmt.Sprintf("%s: status %d: %.200s", o.path, status, buf.Bytes()))
				case p.check != nil && !p.check(idx, o, buf.Bytes()):
					failed++
					errs = append(errs, fmt.Sprintf("%s: unexpected response: %.200s", o.path, buf.Bytes()))
				default:
					lat = append(lat, float64(done.Sub(dueAt).Nanoseconds())/1e3)
					at = append(at, dueAt.Sub(start).Seconds())
				}
				lag = append(lag, float64(sent.Sub(dueAt).Nanoseconds())/1e3)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.at = append(res.at, at...)
			res.lag = append(res.lag, lag...)
			res.attempted += attempted
			res.failed += failed
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(c)
	}
	workers.Wait()
	res.elapsed = time.Since(start)
	res.rate = p.rate
	return res
}

// windows splits the pass into k windows by due time and applies stat to
// each non-empty window's latencies.
func (r *passResult) windows(k int, stat func([]float64) float64) []float64 {
	wins := make([][]float64, k)
	span := r.elapsed.Seconds()
	for i, x := range r.lat {
		w := min(int(r.at[i]/span*float64(k)), k-1)
		wins[w] = append(wins[w], x)
	}
	var out []float64
	for _, w := range wins {
		if len(w) > 0 {
			out = append(out, stat(w))
		}
	}
	return out
}

// windowedTail is the median over k windows of each window's tail
// percentile (the reporting rule applied per window). A stall of the host
// delays the requests of one window, so it cannot fail a max-rate step on
// its own, while overload, which delays every window, still does.
func (r *passResult) windowedTail(k int, want float64) float64 {
	return median(r.windows(k, func(w []float64) float64 { return summarize(w, want).tail }))
}

// windowP50s is each window's median latency, for windows of about
// winLen; the reported latency_p50_us is the median of these over every
// nominal pass of a run, so a host stall moves it no more than it moves
// the few windows it falls in.
func (r *passResult) windowP50s() []float64 {
	k := max(int(r.elapsed/winLen), 1)
	return r.windows(k, func(w []float64) float64 { return summarize(w, 0.5).p50 })
}

// winLen is the window length of windowP50s.
const winLen = 250 * time.Millisecond

// sustained reports whether an open-loop pass kept up with its offered
// rate: nothing failed, the tail latency (timed from the due time, median
// over stepWindows windows) met limit, and the requests due in the last of
// those windows waited a median of at most half the limit. Latency from
// the due time includes the wait to be sent, so a backlog that grows
// through the pass shows in the last window's median, which a single
// stall of the host does not move.
func sustained(r passResult, limit time.Duration) (bool, dist) {
	d := summarize(r.lat, 0.99)
	d.tail = r.windowedTail(stepWindows, 0.99)
	p50s := r.windows(stepWindows, func(w []float64) float64 { return summarize(w, 0.5).p50 })
	us := float64(limit.Microseconds())
	ok := r.failed == 0 && d.n > 0 && d.tail <= us && p50s[len(p50s)-1] <= us/2
	return ok, d
}

// stepWindows is how many windows a search step's tail is taken over.
const stepWindows = 4

// staircase finds the highest sustained open-loop rate with an up-down
// staircase: from start, each step goes up by a factor after a sustained
// step and down by it after a miss. The factor starts at up and takes its
// square root at every reversal until it reaches fine, so the staircase
// brackets the limit as fast as a bisection, then keeps stepping around
// it while more() allows, instead of settling on the outcome of one noisy
// step. With the budget spent, a staircase that has sustained nothing
// keeps descending until a step is sustained or the rate would fall below
// floor. It returns the median rate of the sustained steps taken at the
// fine factor (else the highest sustained rate; 0 if none) with a log
// line per step.
func staircase(run func(rate float64) (bool, dist), start, up, fine, floor float64, more func() bool) (float64, []string) {
	var log []string
	var best float64   // the highest sustained rate
	var held []float64 // the rates of sustained steps at the fine factor
	f, r := up, start
	for n, last := 0, false; n == 0 || more() || best == 0 && r >= floor; n++ {
		ok, d := run(r)
		log = append(log, fmt.Sprintf("%.0f/s:%v(p99=%.0fus,n=%d)", r, ok, d.tail, d.n))
		if n > 0 && ok != last && f > fine {
			f = max(math.Sqrt(f), fine)
		}
		last = ok
		if ok {
			best = max(best, r)
			if f == fine {
				held = append(held, r)
			}
			r *= f
		} else {
			r /= f
		}
	}
	if len(held) > 0 {
		return median(held), log
	}
	return best, log
}

// sleepUntil blocks until t. time.Sleep wakes through the runtime's
// network poller, whose timeout has millisecond granularity on Linux, so
// an open loop at thousands of requests per second would send in 1 ms
// bursts; a nanosleep system call wakes within the kernel's timer slack
// (~50 us). A sleeper holds its P for the duration of the call, so
// reserveSleepers must have added a P per sleeping connection.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// reserveSleepers raises GOMAXPROCS by one P per open-loop connection, so
// connections blocked in sleepUntil never keep the response readers and
// the network poller off the CPUs. It changes only this process.
func reserveSleepers(conns int) {
	runtime.GOMAXPROCS(runtime.NumCPU() + conns)
}
