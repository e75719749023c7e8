package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testEnv builds a run environment with every quota divided by div.
func testEnv(t *testing.T, workload string, seed int64, div uint64, traced bool) *env {
	t.Helper()
	chk, err := newChecker(seed)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{
		workload: workload,
		seed:     seed,
		simSeed:  simSeed(seed),
		window:   300 * time.Millisecond,
		dir:      t.TempDir(),
		div:      div,
		chk:      chk,
		out:      io.Discard,
	}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// runClean runs a workload and fails the test on any error or failed check.
func runClean(t *testing.T, e *env) *outcome {
	t.Helper()
	oc, err := workloads[e.workload](e)
	if err != nil {
		t.Fatalf("%s: %v", e.workload, err)
	}
	if oc.failed != 0 || len(e.chk.failures) != 0 || oc.attempted < 1 {
		t.Fatalf("%s: %d/%d failed: %v", e.workload, oc.failed, oc.attempted, e.chk.failures)
	}
	return oc
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// checkMetrics requires exactly the declared metrics, each finite.
func checkMetrics(t *testing.T, workload string, got []metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", workload, len(got), len(want))
	}
	for _, m := range got {
		unit, ok := want[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not declared", workload, m.name)
		case unit != m.unit:
			t.Errorf("%s: metric %s in %s, declared %s", workload, m.name, m.unit, unit)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("%s: metric %s = %v", workload, m.name, m.value)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	want := declared(t, "end_to_end")
	for _, w := range []string{"sim", "ckpt", "serve"} {
		t.Run(w, func(t *testing.T) {
			oc := runClean(t, testEnv(t, w, 3, 10, false))
			checkMetrics(t, w, oc.metrics, want)
			for _, m := range oc.metrics {
				if m.value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}

func TestTracedSmoke(t *testing.T) {
	want := declared(t, "per_layer")
	for _, w := range []string{"sim", "ckpt", "serve"} {
		t.Run(w, func(t *testing.T) {
			e := testEnv(t, w, 3, 10, true)
			oc := runClean(t, e)
			checkMetrics(t, w, oc.metrics, want)
			spans := e.tr.closed()
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			self := selfByLayer(spans)
			for _, l := range []string{"sim", "checkpoint", "api", "serve", "experiments", "trace", "cpu", "mem", "coherence", "sharedcache", "cluster"} {
				if self[l] <= 0 {
					t.Errorf("layer %s has no self time", l)
				}
			}
		})
	}
}

// Attaching the tracer and telemetry collectors must leave every
// result digest unchanged.
func TestTracingKeepsDigests(t *testing.T) {
	for _, w := range []string{"sim", "ckpt", "serve"} {
		t.Run(w, func(t *testing.T) {
			plain := testEnv(t, w, 4, 10, false)
			runClean(t, plain)
			traced := testEnv(t, w, 4, 10, true)
			runClean(t, traced)
			common := 0
			for label, d := range plain.chk.seen {
				if td, ok := traced.chk.seen[label]; ok {
					common++
					if td != d {
						t.Errorf("%s: traced digest %s, untraced %s", label, td[:12], d[:12])
					}
				}
			}
			if common == 0 {
				t.Fatal("no point ran both untraced and traced")
			}
		})
	}
}

// At the default seed and full quotas every result must reproduce the
// digest committed in digests.json.
func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-quota simulations")
	}
	for _, w := range []string{"sim", "ckpt", "serve"} {
		t.Run(w, func(t *testing.T) {
			e := testEnv(t, w, defaultSeed, 1, false)
			e.window = time.Millisecond
			runClean(t, e)
			pinned := 0
			for label := range e.chk.seen {
				if _, ok := e.chk.committed[label]; ok {
					pinned++
				}
			}
			if pinned == 0 {
				t.Fatal("no committed digest was checked")
			}
		})
	}
}

func TestCheckerCatchesMismatch(t *testing.T) {
	c, err := newChecker(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	const label = "SH-STT-CC.medium.cl16.radix.q20000.s1"
	if !c.check(label, c.committed[label], true) {
		t.Fatalf("committed digest rejected: %v", c.failures)
	}
	if c.check(label, strings.Repeat("0", 64), true) {
		t.Error("a digest differing from the run's first was accepted")
	}
	if c.check("no-such-point", strings.Repeat("0", 64), true) {
		t.Error("a pinned point without a committed digest was accepted")
	}
}

func TestSelfByLayer(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench/op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim/New", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sim/Run", Start: 20, End: 60}, // overlaps New
		{ID: 4, Parent: 3, Name: "api/EncodeBytes", Start: 40, End: 50},
	}
	self := selfByLayer(spans)
	want := map[string]time.Duration{"bench": 50, "sim": 20 + 30, "api": 10}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, self[l], d)
		}
	}
}

func TestQuantile(t *testing.T) {
	s := samples{4, 1, 3, 2, 5}
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.quantile(0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if !math.IsNaN(samples{}.median()) {
		t.Error("median of no samples is a number")
	}
}

func TestResultLine(t *testing.T) {
	oc := &outcome{attempted: 3, metrics: []metric{{"setup_s", "s", 0.5, 3}}}
	line, err := resultLine(oc, true)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	dec := json.NewDecoder(bytes.NewReader([]byte(line)))
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), line)
	}
	oc.metrics[0].value = math.NaN()
	if _, err := resultLine(oc, true); err == nil {
		t.Error("a NaN metric was accepted")
	}
}
