package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workdir holds each run's scratch directory and the traced runs'
// span files, relative to the checkout root the benchmark runs from.
const workdir = ".bench_build"

// env is what one benchmark run gives its workload.
type env struct {
	workload string
	seed     int64 // the --seed argument
	simSeed  int64 // the simulation seed derived from it
	window   time.Duration
	dir      string  // scratch directory, removed when the run ends
	tr       *tracer // nil in untraced runs
	div      uint64  // divides every quota; tests shrink the work with it
	chk      *checker
	out      io.Writer // human-readable report lines
}

func (e *env) traced() bool { return e.tr != nil }

// quota scales one of the benchmark's instruction or cycle budgets.
func (e *env) quota(q uint64) uint64 { return q / e.div }

func (e *env) printf(format string, args ...any) { fmt.Fprintf(e.out, format+"\n", args...) }

// outcome is what a workload reports: its operation counts and either
// its end-to-end or its per-layer metrics.
type outcome struct {
	attempted, failed int
	metrics           []metric
}

var workloads = map[string]func(*env) (*outcome, error){
	"sim":   runSim,
	"ckpt":  runCkpt,
	"serve": runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: sim, ckpt or serve")
	seed := fs.Int64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	printDigests := fs.Bool("print-digests", false, "print every result digest (to refresh digests.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload sim|ckpt|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	chk, err := newChecker(*seed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		simSeed:  simSeed(*seed),
		window:   time.Duration(*seconds * float64(time.Second)),
		dir:      dir,
		chk:      chk,
		div:      1,
		out:      stdout,
	}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	e.printf("# perfbench workload=%s seed=%d seconds=%g trace=%d", *workload, *seed, *seconds, *traceFlag)
	e.printf("# machine: %s", machine())

	total0, steal0 := cpuTicks()
	oc, err := fn(e)
	total1, steal1 := cpuTicks()
	// Time stolen by other guests on the host slows every figure of
	// the run; it is printed so a reader can judge a noisy run.
	e.printf("# host steal during the run: %.2f%%", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if e.traced() {
		if err := writeTrace(e); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	for _, m := range oc.metrics {
		e.printf("%-30s %14.6g %-9s n=%d", m.name, m.value, m.unit, m.n)
	}
	for _, f := range chk.failures {
		e.printf("# FAILED %s", f)
	}
	if *printDigests {
		fmt.Fprintf(stderr, "{\n  %s\n}\n", strings.Join(chk.digests(), ",\n  "))
	}
	line, err := resultLine(oc, len(chk.failures) == 0)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	e.printf("# %d/%d operations failed", oc.failed, oc.attempted)
	fmt.Fprintln(stdout, line)
	return 0
}

// simSeed maps the benchmark seed onto a positive simulation seed (the
// simulator reads 0 as 1, which would alias two benchmark seeds).
func simSeed(seed int64) int64 {
	if seed > 0 {
		return seed
	}
	return 1_000_000_007 - seed
}

// writeTrace saves the traced run's spans and prints self time per
// layer.
func writeTrace(e *env) error {
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
	self, err := e.tr.write(path, e.workload, e.seed)
	if err != nil {
		return err
	}
	e.printf("# spans: %d written to %s", len(e.tr.closed()), path)
	for _, l := range sortedKeys(self) {
		e.printf("# self time %-12s %10.3f ms", l, float64(self[l].Microseconds())/1000)
	}
	return nil
}

// resultLine renders the final JSON line.
func resultLine(oc *outcome, checksOK bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(oc.metrics))
	for _, m := range oc.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s has no value (%d samples)", m.name, m.n)
		}
		ms[m.name] = value{Value: m.value, Unit: m.unit}
	}
	if oc.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{checksOK && oc.failed == 0, oc.attempted, oc.failed, ms})
	return string(data), err
}
