package main

import "time"

// load accumulates one workload's end-to-end figures over its
// measurement window.
type load struct {
	setup samples // seconds per set-up repeat
	ops   samples // seconds per operation
	hits  samples // ms per operation answered from finished work
	colds samples // ms per operation that had to simulate
	instr float64 // simulated instructions retired in timed simulator calls
	simS  float64 // host seconds in those calls
	start time.Time
	wall  time.Duration
	heap  heap // allocations over the window

	// hitP99s holds one p99 of hits per operation where each operation
	// answers thousands (sim). A few collections or scheduler stalls
	// make up a run's slowest hundredth, so a p99 pooled over the run
	// swings with where they land; the median of per-operation p99s
	// does not.
	hitP99s samples
}

func (l *load) begin() {
	l.start = time.Now()
	l.heap = readHeap()
}

func (l *load) finish() {
	l.wall = time.Since(l.start)
	l.heap = readHeap().sub(l.heap)
}

// metrics returns the ten end-to-end metrics, in BENCHMARK.json order.
func (l *load) metrics() []metric {
	n := len(l.ops)
	hitP99 := metric{"hit_ms_p99", "ms", l.hits.quantile(0.99), len(l.hits)}
	if len(l.hitP99s) > 0 {
		hitP99.value, hitP99.n = l.hitP99s.median(), len(l.hitP99s)
	}
	return []metric{
		{"setup_s", "s", l.setup.median(), len(l.setup)},
		{"sim_minstr_per_s", "Minstr/s", l.instr / l.simS / 1e6, n},
		{"op_s_p50", "s", l.ops.median(), n},
		{"hit_ms_p50", "ms", l.hits.quantile(0.50), len(l.hits)},
		hitP99,
		{"cold_ms_p50", "ms", l.colds.quantile(0.50), len(l.colds)},
		{"cold_ms_p90", "ms", l.colds.quantile(0.90), len(l.colds)},
		{"req_per_s", "1/s", float64(n) / l.wall.Seconds(), n},
		{"alloc_mib_per_op", "MiB", float64(l.heap.alloc) / (1 << 20) / float64(n), n},
		{"max_rss_mib", "MiB", maxRSSMiB(), 1},
	}
}
