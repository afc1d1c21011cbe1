package main

import (
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is a share of a machine whose speed
// changes with its other tenants: the same work on the same inputs costs
// up to ~30% more CPU time in one minute than in the next. Each run
// therefore samples a fixed reference kernel between its timed phases and
// reports its time-based metrics scaled to a host on which one unit of
// the kernel takes refNominal: rates the system sets are multiplied by
// slow, times divided by it, where slow is the run's unit time over
// refNominal. The kernel is the benchmark's own code and allocates
// nothing, so neither a change to the program nor the program's garbage
// moves it, and a faster program still shows as a higher scaled rate.
// The measured values are logged beside the scaled ones.

// refNominal is the unit time the scaled metrics refer to, a round figure
// within the 190-420 us the kernel took on the 2-vCPU Xeon VM the
// benchmark was tuned on.
const refNominal = 300 * time.Microsecond

// refBurst is how many kernel units one sample times.
const refBurst = 10

// refKernel is a fixed piece of CPU work of the kinds the program does:
// formatting numbers as text, sorting floats, a binary heap, map inserts
// and lookups, and a dependent walk through a table larger than L1.
type refKernel struct {
	src   []float64
	work  []float64
	heap  []float64
	m     map[int32]float64
	next  []int32
	buf   []byte
	sink  float64
	isink int
}

func newRefKernel() *refKernel {
	r := rand.New(rand.NewSource(1))
	k := &refKernel{
		src:  make([]float64, 2048),
		work: make([]float64, 2048),
		heap: make([]float64, 0, 1024),
		m:    make(map[int32]float64, 512),
		next: make([]int32, 1<<15),
		buf:  make([]byte, 0, 64),
	}
	for i := range k.src {
		k.src[i] = r.Float64()
	}
	// next is one cycle through every slot in random order.
	perm := r.Perm(len(k.next))
	for i := range perm {
		k.next[perm[i]] = int32(perm[(i+1)%len(perm)])
	}
	return k
}

// unit runs the kernel once.
func (k *refKernel) unit() {
	for _, x := range k.src[:256] {
		k.buf = strconv.AppendFloat(k.buf[:0], x, 'g', -1, 64)
		k.buf = strconv.AppendInt(k.buf, int64(x*1e9), 10)
		for _, c := range k.buf {
			k.isink += int(c)
		}
	}
	copy(k.work, k.src)
	sort.Float64s(k.work)
	k.heap = k.heap[:0]
	for i, x := range k.src[:1024] {
		k.push(x)
		if i%3 == 2 {
			k.sink += k.pop()
		}
	}
	clear(k.m)
	for i, x := range k.src[:512] {
		k.m[int32(i*7919)%1021] += x
	}
	for i := int32(0); i < 1021; i += 3 {
		k.sink += k.m[i]
	}
	j := int32(0)
	for i := 0; i < 8192; i++ {
		j = k.next[j]
	}
	k.isink += int(j)
}

func (k *refKernel) push(x float64) {
	h := append(k.heap, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	k.heap = h
}

func (k *refKernel) pop() float64 {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, s := 2*i+1, i
		if l < n && h[l] < h[s] {
			s = l
		}
		if l+1 < n && h[l+1] < h[s] {
			s = l + 1
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	k.heap = h
	return top
}

// hostSpeed collects a run's reference samples.
type hostSpeed struct {
	k     *refKernel
	units []float64     // microseconds per unit, one per sample
	cpu   time.Duration // this process's CPU time spent sampling
}

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{k: newRefKernel()}
	h.k.unit() // fault in the tables
	return h
}

// sample times one burst of the kernel and returns how long it took.
func (h *hostSpeed) sample() time.Duration {
	c0 := selfCPU()
	t0 := time.Now()
	for i := 0; i < refBurst; i++ {
		h.k.unit()
	}
	d := time.Since(t0)
	h.cpu += selfCPU() - c0
	h.units = append(h.units, float64(d.Nanoseconds())/1e3/refBurst)
	return d
}

// unitTime is the mean unit time over the samples between the 10th and
// the 90th percentile: the host's speed alternates between levels within
// seconds, so a mean follows the share of time spent at each, where a
// median would jump from one level to the other.
func (h *hostSpeed) unitTime() float64 {
	xs := append([]float64(nil), h.units...)
	sort.Float64s(xs)
	lo, hi := len(xs)/10, len(xs)-len(xs)/10
	return mean(xs[lo:hi])
}

// slow is the run's unit time over refNominal: above 1 on a host slower
// than the reference.
func (h *hostSpeed) slow() float64 {
	return h.unitTime() / (float64(refNominal.Nanoseconds()) / 1e3)
}

// scaledTimes names the end-to-end metrics that are times, divided by slow.
var scaledTimes = []string{"setup_s", "latency_p50_us", "server_cpu_us_per_op"}

// scale rescales m's time-based metrics to the reference host, logging the
// measured values beside them: the times, and the rates the system sets,
// which are multiplied by slow. An open loop's throughput is the rate it
// was offered, so it is not a rate the system sets.
func (h *hostSpeed) scale(m *measured, openLoop bool) {
	scaledRates := []string{"throughput_rps", "max_rate_rps"}
	if openLoop {
		scaledRates = scaledRates[1:]
	}
	s := h.slow()
	logf("  host: reference unit %.1f us over %d samples: slow %.4f", h.unitTime(), len(h.units), s)
	for _, n := range scaledRates {
		logf("  measured %-25s %12.6g", n, m.values[n])
		m.values[n] *= s
	}
	for _, n := range scaledTimes {
		logf("  measured %-25s %12.6g", n, m.values[n])
		m.values[n] /= s
	}
}
