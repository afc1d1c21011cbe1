package main

import "time"

// workload is one traffic mix. The serving workloads drive a gridbcastd
// child process over loopback; plan-execute calls the library in-process.
// BENCHMARK.json records the same loop types, rates and reasons.
//
// The rates and the 5% share of batches follow the benchmark's
// specification, and the Zipf exponent of 1 follows the repository's
// serving mix (ranks drawn with probability proportional to 1/r). The
// other mix parameters are assumptions, not observed traffic: the shape
// mixes (gen.go), the batch size, the reload period, build-serve's pool
// of sizes and plan-execute's grid and network mix.
type workload struct {
	name string
	// library workloads run Session.Plan + Session.Execute in-process.
	library bool
	// conns is the number of keep-alive connections (closed loop: clients).
	conns int
	// rate is the nominal open-loop rate in requests/s (0: closed loop);
	// fixedRates are further open-loop rates whose latencies are logged.
	rate       float64
	fixedRates []float64
	// searchFrom is the first rate of the max-rate step search.
	searchFrom float64
	// limit is the open-loop p99 latency limit of the rate step search.
	limit     time.Duration
	cacheCap  int
	platforms []platSpec

	keysPerPlatform int
	sizePool        int
	warmOps         int
	streamLen       int
	zipfS           float64
	batchSize       int
	// reloadEvery > 0 reloads the registry at the start of every period
	// of that length of the nominal pass.
	reloadEvery time.Duration

	// oracleEvery samples one response in this many for the byte oracle.
	oracleEvery int64
	// replayOps and schedKeys size the traced decomposition replays.
	replayOps int
	schedKeys int
	execOps   int
}

var workloads = []*workload{
	{
		// Open loop over a fully resident working set: transport, decode
		// and encode do the work and the planner does none.
		name:       "hit-serve",
		conns:      2,
		rate:       3000,
		fixedRates: []float64{6000, 9000},
		searchFrom: 7000,
		// The limit sits above the 10-25 ms stalls the shared host gives
		// a process now and then, so a step misses when the daemon falls
		// behind, not when the host pauses it.
		limit:     50 * time.Millisecond,
		cacheCap:  256,
		platforms: []platSpec{{"g5k", 0}, {"c16", 16}, {"c32", 32}},

		keysPerPlatform: 80,
		streamLen:       1 << 15,
		oracleEvery:     200,
		replayOps:       3000,
		schedKeys:       60,
		execOps:         40,
	},
	{
		// Closed loop over unique keys on large platforms: the planner
		// dominates and the cache only inserts and evicts.
		name:      "build-serve",
		conns:     2,
		cacheCap:  24,
		platforms: []platSpec{{"c64", 64}, {"c128", 128}},

		sizePool:    24,
		warmOps:     96,
		streamLen:   10000,
		oracleEvery: 100,
		replayOps:   48,
		schedKeys:   40,
		execOps:     12,
	},
	{
		// Open loop over a Zipf working set larger than the cache, with
		// batches and reloads: hits, builds, evictions and collapses mix
		// on the same cores. It runs by name but is not in BENCHMARK.json:
		// on the 2-vCPU host the benchmark was tuned on, its latency_p50_us
		// and max_rate_rps spread 0.18-0.50 of their medians between runs
		// of the same code, past their bounds.
		name:       "mixed-serve",
		conns:      2,
		rate:       1200,
		searchFrom: 4000,
		limit:      100 * time.Millisecond,
		cacheCap:   96,
		platforms:  []platSpec{{"g5k", 0}, {"c16", 16}, {"c32", 32}},

		keysPerPlatform: 300,
		warmOps:         200,
		streamLen:       1 << 15,
		zipfS:           1,
		batchSize:       8,
		reloadEvery:     2500 * time.Millisecond,
		oracleEvery:     100,
		replayOps:       1500,
		schedKeys:       60,
		execOps:         40,
	},
	{
		// In-process Plan + Execute: the only workload that reaches the
		// executor, simulator and virtual network.
		name:      "plan-execute",
		library:   true,
		conns:     1,
		cacheCap:  64,
		platforms: []platSpec{{"c16", 16}, {"c64", 64}},

		keysPerPlatform: 80,
		streamLen:       1 << 14,
		oracleEvery:     100,
		replayOps:       400,
		schedKeys:       12,
		execOps:         200,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
