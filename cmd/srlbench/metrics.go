package main

// metric declares one reported number. BENCHMARK.json declares the same
// names, units and directions; main_test.go keeps the two lists in step.
type metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the numbers a user of a workload sees. Every untraced run
// prints all of them, with its timings scaled to the nominal host speed (see
// hostspeed.go). A round is one fixed unit of a workload's work; an op is
// one simulated point (paper-grid, deep-memory), one lockstep system run
// (multicore) or one /v1/simulate request of the mixed phase (service).
var endToEnd = []metric{
	{"wall_s", "s", "lower"},            // median wall time of a round
	{"sim_uops_per_s", "1/s", "higher"}, // uops simulated by a round's timed ops over wall_s
	{"setup_s", "s", "lower"},           // median set-up time before a round's first op
	{"live_heap_mib", "MiB", "lower"},   // largest live heap after a round's set-up or timed work
	{"alloc_mib", "MiB", "lower"},       // median heap bytes allocated by a round
	{"op_p50_ms", "ms", "lower"},
}

// stages are the nine calls of core.(*Core).step, in call order.
var stages = []string{
	"processCompletions", "commitCheckpoints", "injectSnoops", "drainStores",
	"movePendingDrains", "reinsertSlice", "retrySRLStalled", "issue", "allocate",
}

// perLayer are the traced run's numbers, one set per layer of the
// simulator. A layer a workload does not reach reads 0. The *_frac values
// are shares of the traced round's CPU profile samples.
var perLayer = append(stageMetrics(), []metric{
	{"core.step.cum_frac", "frac", "lower"},
	{"core.skip.cum_frac", "frac", "lower"},
	{"core.skip.speedup", "x", "higher"}, // step-mode over skip-mode wall; deep-memory only
	{"core.new_ms", "ms", "lower"},       // per core built
	{"core.run_us_per_kuop", "us/kuop", "lower"},
	{"trace.next.cum_frac", "frac", "lower"},
	{"trace.next_calls", "count", "lower"},
	{"lsq.flat_frac", "frac", "lower"},
	{"cachesim.flat_frac", "frac", "lower"},
	{"heapq.flat_frac", "frac", "lower"},
	{"runtime.map_frac", "frac", "lower"},
	{"runtime.gc_frac", "frac", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"sweep.memo_hit_ratio", "frac", "higher"},
	{"sweep.simulated", "count", "lower"},
	{"sweep.overhead_ms", "ms", "lower"}, // sweep.Run wall minus the Simulate calls inside it
	{"bench.plan_ms", "ms", "lower"},
	{"bench.assemble_ms", "ms", "lower"},
	{"multicore.ns_per_lockstep_cycle", "ns/cycle", "lower"},
	{"multicore.snoops_per_kcycle", "1/kcycle", "lower"},
	{"store.get_us_p50", "us", "lower"},
	{"store.put_us_p50", "us", "lower"},
	{"store.gets", "count", "lower"},
	{"store.get_hits", "count", "higher"},
	{"store.puts", "count", "lower"},
	{"serve.req_per_s", "1/s", "higher"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p90_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.miss_p90_ms", "ms", "lower"},
	{"serve.store_hit_p50_ms", "ms", "lower"},
	{"serve.hit_overhead_us", "us", "lower"}, // HTTP memo hit minus an in-process sweep.Run memo hit
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.shed", "count", "lower"},
}...)

func stageMetrics() []metric {
	out := make([]metric, len(stages))
	for i, s := range stages {
		out[i] = metric{"core.stage." + s + ".cum_frac", "frac", "lower"}
	}
	return out
}
