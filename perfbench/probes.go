package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/experiments"
	"respin/internal/serve"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

// probeQuota is the per-thread budget of the small simulations the
// experiments and serve probes run.
const probeQuota = 2_000

// simLayer aggregates the from-scratch simulations of a traced run,
// each with a telemetry collector attached.
type simLayer struct {
	newMs, runS                              samples
	runNs, instr, cycles, ff                 float64
	epochs, drained                          float64
	l1dReads, l1dMisses, ctrlReads, ctrlHalf float64
	runs                                     int
}

func (s *simLayer) add(res sim.Result, newD, runD time.Duration) {
	s.newMs = append(s.newMs, ms(newD))
	s.runS = append(s.runS, runD.Seconds())
	s.runNs += float64(runD.Nanoseconds())
	s.instr += float64(res.Instructions)
	s.cycles += float64(res.Cycles)
	snap := res.Metrics
	s.ff += snap.Value("sim.ff.skipped_cycles")
	s.epochs += snap.Value("sim.sched.epochs")
	s.drained += snap.Value("sim.sched.drained_requests")
	for _, m := range snap.Metrics {
		if !strings.HasPrefix(m.Name, "cluster.") {
			continue
		}
		switch {
		case strings.HasSuffix(m.Name, ".l1d.cache.reads"):
			s.l1dReads += m.Value
		case strings.HasSuffix(m.Name, ".l1d.cache.read_misses"):
			s.l1dMisses += m.Value
		case strings.HasSuffix(m.Name, ".l1d.reads"):
			s.ctrlReads += m.Value
		case strings.HasSuffix(m.Name, ".l1d.read_half_miss"):
			s.ctrlHalf += m.Value
		}
	}
	s.runs++
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// apiDoc is one request and its result as the workload produced it.
type apiDoc struct {
	req v1.RunRequest
	res sim.Result
}

// layerReport collects a traced run's per-layer figures.
type layerReport struct {
	apiPoints []point  // the workload's design points
	apiDocs   []apiDoc // the workload's results, telemetry attached

	traceNext, cpuStep, memAccess, memFill, clusterTick samples
	scTick, cohRead, cohWrite                           samples

	sim                   simLayer
	speedup               float64
	speedupN              int
	ckptSave, ckptRestore samples
	ckptMiB, writesPerOp  float64
	queueWait, expHit     samples
	expHitRatio           float64
	apiDecode, apiEncode  samples
	resultKiB             float64
	handlerHit, replay    samples
	rejected              float64
	gcCycles, gcPauseMs   float64
	overhead              float64
	overheadN             int
}

// metrics returns the per-layer metrics, in BENCHMARK.json order.
func (r *layerReport) metrics() []metric {
	s := &r.sim
	return []metric{
		{"trace.next_ns", "ns", r.traceNext.median(), len(r.traceNext)},
		{"cpu.step_ns", "ns", r.cpuStep.median(), len(r.cpuStep)},
		{"mem.access_ns", "ns", r.memAccess.median(), len(r.memAccess)},
		{"mem.fill_ns", "ns", r.memFill.median(), len(r.memFill)},
		{"mem.l1d_read_miss_ratio", "ratio", ratio(s.l1dMisses, s.l1dReads), s.runs},
		{"cluster.tick_ns", "ns", r.clusterTick.median(), len(r.clusterTick)},
		{"sharedcache.tick_ns", "ns", r.scTick.median(), len(r.scTick)},
		{"sharedcache.half_miss_ratio", "ratio", ratio(s.ctrlHalf, s.ctrlReads), s.runs},
		{"coherence.read_ns", "ns", r.cohRead.median(), len(r.cohRead)},
		{"coherence.write_ns", "ns", r.cohWrite.median(), len(r.cohWrite)},
		{"sim.new_ms", "ms", s.newMs.median(), len(s.newMs)},
		{"sim.run_s", "s", s.runS.median(), len(s.runS)},
		{"sim.ns_per_instr", "ns", ratio(s.runNs, s.instr), s.runs},
		{"sim.ns_per_ticked_cycle", "ns", ratio(s.runNs, s.cycles-s.ff), s.runs},
		{"sim.ff_ratio", "ratio", ratio(s.ff, s.cycles), s.runs},
		{"sim.epochs", "count", ratio(s.epochs, float64(s.runs)), s.runs},
		{"sim.drained_per_epoch", "count", ratio(s.drained, s.epochs), s.runs},
		{"sim.workers_speedup", "x", r.speedup, r.speedupN},
		{"checkpoint.save_ms", "ms", r.ckptSave.median(), len(r.ckptSave)},
		{"checkpoint.restore_ms", "ms", r.ckptRestore.median(), len(r.ckptRestore)},
		{"checkpoint.mib", "MiB", r.ckptMiB, 1},
		{"checkpoint.writes_per_op", "count", r.writesPerOp, 1},
		{"experiments.queue_wait_ms", "ms", meanOr0(r.queueWait), len(r.queueWait)},
		{"experiments.hit_us", "us", r.expHit.median(), len(r.expHit)},
		{"experiments.cache_hit_ratio", "ratio", r.expHitRatio, 1},
		{"api.decode_us", "us", r.apiDecode.median(), len(r.apiDecode)},
		{"api.encode_us", "us", r.apiEncode.median(), len(r.apiEncode)},
		{"api.result_kib", "KiB", r.resultKiB, len(r.apiDocs)},
		{"serve.handler_hit_us", "us", r.handlerHit.median(), len(r.handlerHit)},
		{"serve.journal_replay_ms", "ms", r.replay.median(), len(r.replay)},
		{"serve.rejected_ratio", "ratio", r.rejected, 1},
		{"gc.cycles_per_op", "count", r.gcCycles, r.overheadN * 2},
		{"gc.pause_ms_per_op", "ms", r.gcPauseMs, r.overheadN * 2},
		{"bench.trace_overhead_ratio", "x", r.overhead, r.overheadN},
	}
}

func meanOr0(s samples) float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// twins runs each traced-run operation twice, untraced and then
// traced, so tracing overhead is measured on identical work, and
// counts the garbage collections the operations caused.
type twins struct {
	start         time.Time
	h0            heap
	forced        heap // collection work of the benchmark's own runtime.GC calls
	plain, traced time.Duration
	n             int
}

func newTwins() *twins { return &twins{start: time.Now(), h0: readHeap()} }

// open reports whether another pair fits in the budget (one always does).
func (t *twins) open(budget time.Duration) bool { return t.n == 0 || time.Since(t.start) < budget }

// gc collects outside any timed region, keeping its cost out of the
// per-operation GC figures.
func (t *twins) gc() {
	h := readHeap()
	settle()
	d := readHeap().sub(h)
	t.forced.gcs += d.gcs
	t.forced.pauseNs += d.pauseNs
}

// pair runs fn untraced, then traced under a root span for op.
func (t *twins) pair(fn func(tr *tracer, root int) (time.Duration, error), tr *tracer, op int) error {
	t.gc()
	d, err := fn(nil, 0)
	if err != nil {
		return err
	}
	t.gc()
	root := tr.begin("bench/op", 0, op)
	d2, err := fn(tr, root)
	tr.end(root)
	if err != nil {
		return err
	}
	t.plain += d
	t.traced += d2
	t.n++
	return nil
}

func (t *twins) report(r *layerReport) {
	h := readHeap().sub(t.h0)
	ops := float64(2 * t.n)
	r.gcCycles = float64(h.gcs-t.forced.gcs) / ops
	r.gcPauseMs = float64(h.pauseNs-t.forced.pauseNs) / 1e6 / ops
	r.overhead = t.traced.Seconds() / t.plain.Seconds()
	r.overheadN = t.n
}

// probeLayers runs the layer drivers and probes every traced run
// shares. primary is the workload's main design point and cycles its
// simulated length; mid is a mid-run checkpoint of it ("" writes one).
func probeLayers(e *env, r *layerReport, primary point, cycles uint64, mid string) error {
	profs := profiles(r.apiPoints)
	r.traceNext = driveTrace(e.tr, profs, e.simSeed)
	r.cpuStep = driveCPU(e.tr, profs, e.simSeed)
	r.memAccess, r.memFill = driveMem(e.tr, profs, e.simSeed)
	r.cohRead, r.cohWrite = driveCoherence(e.tr, profs, e.simSeed)
	r.scTick = driveSharedCache(e.tr, profs, e.simSeed)
	r.clusterTick = driveCluster(e.tr, r.apiPoints)
	if err := speedup(e, r); err != nil {
		return err
	}
	if mid == "" {
		mid = filepath.Join(e.dir, "probe-mid.ckpt")
		if err := writeMid(primary, cycles/2, 1, mid); err != nil {
			return err
		}
	}
	if err := checkpointProbe(e, r, mid); err != nil {
		return err
	}
	if err := experimentsProbe(e, r, primary); err != nil {
		return err
	}
	if err := apiProbe(e, r); err != nil {
		return err
	}
	if r.replay == nil {
		return serveProbe(e, r)
	}
	return nil
}

// speedup measures ROADMAP item 2's decision number: the median Run
// time at workers=1 over that at workers=2 on the ckpt point.
func speedup(e *env, r *layerReport) error {
	pts, err := points(e.simSeed, e.quota(ckptQuota), "SH-STT-CC/radix")
	if err != nil {
		return err
	}
	p := pts[0]
	var w1, w2 samples
	for i := range 6 {
		workers := 1 + (i+i/2)%2 // 1 2 2 1 1 2: each order equally often
		opts := p.opts
		opts.Workers = workers
		settle()
		res, _, runD, err := simOp(e.tr, 0, 0, p, opts)
		if err != nil {
			return err
		}
		verify(e, p, res, true) // a mismatch is recorded as a failed check
		if workers == 1 {
			w1 = append(w1, runD.Seconds())
		} else {
			w2 = append(w2, runD.Seconds())
		}
	}
	r.speedup, r.speedupN = w1.median()/w2.median(), len(w1)
	verdict := "measured"
	if runtime.NumCPU() < 2 {
		verdict = "UNVERIFIED: fewer than 2 CPUs"
	}
	e.printf("# sim.workers_speedup = %.3f (median of %d runs each at workers=1 and 2; %s)", r.speedup, len(w1), verdict)
	return nil
}

// checkpointProbe times sim.Resume and Sim.WriteCheckpoint on a mid-run
// checkpoint of the workload's primary point.
func checkpointProbe(e *env, r *layerReport, mid string) error {
	info, err := sim.CheckpointInfo(mid)
	if err != nil {
		return err
	}
	st, err := os.Stat(mid)
	if err != nil {
		return err
	}
	r.ckptMiB = float64(st.Size()) / (1 << 20)
	out := filepath.Join(e.dir, "probe-save.ckpt")
	for range 5 {
		settle()
		var s *sim.Sim
		d := e.tr.timed("checkpoint/Resume", 0, 0, func(int) { s, err = sim.Resume(mid) })
		if err != nil {
			return err
		}
		r.ckptRestore = append(r.ckptRestore, ms(d))
		d = e.tr.timed("checkpoint/Sim.WriteCheckpoint", 0, 0, func(int) { err = s.WriteCheckpoint(out, info.Cycle) })
		if err != nil {
			return err
		}
		r.ckptSave = append(r.ckptSave, ms(d))
	}
	return nil
}

// experimentsProbe replays a serve-shaped schedule — two callers, the
// workload's points repeated, every sixth request a fresh seed —
// through a one-job experiments.Runner, timing queue waits for calls
// that simulate and latency for calls the cache answers.
func experimentsProbe(e *env, r *layerReport, primary point) error {
	runner := experiments.NewRunner()
	runner.Jobs = 1
	if err := runner.Normalize(); err != nil {
		return err
	}
	warm, err := reQuota(r.apiPoints, e.quota(probeQuota))
	if err != nil {
		return err
	}
	var mu sync.Mutex
	calls := 0
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range 24 {
				p := warm[(j+g)%len(warm)]
				if j%6 == 5 {
					p, errs[g] = newPoint(primary.req.Config, primary.req.Bench, e.quota(probeQuota), e.simSeed*1_000+int64(g*100+j))
					if errs[g] != nil {
						return
					}
				}
				var ran time.Time
				call := time.Now()
				id := e.tr.begin("experiments/Runner.DoFunc", 0, 0)
				_, err := runner.DoFunc(context.Background(), p.req.Key(), p.label(), func(context.Context) (sim.Result, error) {
					ran = time.Now()
					return sim.Run(p.cfg, p.req.Bench, p.opts)
				})
				e.tr.end(id)
				done := time.Since(call)
				if err != nil {
					errs[g] = err
					return
				}
				mu.Lock()
				calls++
				if ran.IsZero() {
					r.expHit = append(r.expHit, float64(done.Nanoseconds())/1e3)
				} else {
					r.queueWait = append(r.queueWait, ms(ran.Sub(call)))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.expHitRatio = float64(runner.CacheHits()) / float64(calls)
	return nil
}

// reQuota returns the points at another quota.
func reQuota(pts []point, quota uint64) ([]point, error) {
	out := make([]point, len(pts))
	for i, p := range pts {
		q, err := newPoint(p.req.Config, p.req.Bench, quota, p.req.Seed)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// apiProbe times v1 request decoding and result encoding on the
// workload's own requests and results.
func apiProbe(e *env, r *layerReport) error {
	var kib float64
	for _, d := range r.apiDocs {
		reqBody, err := v1.EncodeBytes(d.req)
		if err != nil {
			return err
		}
		for range 200 {
			var derr error
			t := e.tr.timed("api/DecodeRunRequest", 0, 0, func(int) { _, derr = v1.DecodeRunRequest(bytes.NewReader(reqBody)) })
			if derr != nil {
				return derr
			}
			r.apiDecode = append(r.apiDecode, float64(t.Nanoseconds())/1e3)
		}
		for range 20 {
			var body []byte
			var eerr error
			t := e.tr.timed("api/EncodeBytes", 0, 0, func(int) { body, eerr = encode(d.req, d.res) })
			if eerr != nil {
				return eerr
			}
			r.apiEncode = append(r.apiEncode, float64(t.Nanoseconds())/1e3)
			kib = float64(len(body)) / 1024
		}
		r.resultKiB += kib / float64(len(r.apiDocs))
	}
	return nil
}

// serveProbe runs an in-process respin-serve over the workload's points
// at the probe quota: it journals them, times handler hits, then times
// journal replay by reopening the server.
func serveProbe(e *env, r *layerReport) error {
	pts, err := reQuota(r.apiPoints, e.quota(probeQuota))
	if err != nil {
		return err
	}
	jdir := filepath.Join(e.dir, "probe-journal")
	tele := telemetry.New()
	srv, err := newServer(jdir, tele)
	if err != nil {
		return err
	}
	h := srv.Handler()
	bodies := make([][]byte, len(pts))
	for i, p := range pts {
		if bodies[i], err = v1.EncodeBytes(p.req); err != nil {
			return err
		}
		if _, err := handle(h, bodies[i]); err != nil {
			return err
		}
	}
	for i := range 200 {
		var herr error
		d := e.tr.timed("serve/Handler", 0, 0, func(int) { _, herr = handle(h, bodies[i%len(bodies)]) })
		if herr != nil {
			return herr
		}
		r.handlerHit = append(r.handlerHit, float64(d.Nanoseconds())/1e3)
	}
	snap := tele.Snapshot()
	r.rejected = ratio(snap.Value("http.rejected"), snap.Value("http.requests"))
	for range 5 {
		settle()
		var serr error
		d := e.tr.timed("serve/New", 0, 0, func(int) { _, serr = newServer(jdir, nil) })
		if serr != nil {
			return serr
		}
		r.replay = append(r.replay, ms(d))
	}
	return nil
}

// newServer builds a journaled server over a one-job runner.
func newServer(journal string, tele *telemetry.Collector) (*serve.Server, error) {
	runner := experiments.NewRunner()
	runner.Jobs = 1
	return serve.New(serve.Options{Runner: runner, Journal: journal, Telemetry: tele})
}

// handle POSTs one /v1/run body to the handler in-process.
func handle(h http.Handler, body []byte) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("POST /v1/run: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}
