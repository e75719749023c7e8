package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	v1 "respin/internal/api/v1"
	"respin/internal/sim"
	"respin/internal/telemetry"
)

const (
	// simQuota and ckptQuota are the per-thread instruction budgets of
	// the sim and ckpt operations: about half a second of simulation
	// each on a 2-core Xeon, so a run holds tens of operations.
	simQuota  = 20_000
	ckptQuota = 20_000
	// ckptEvery is the ckpt workload's checkpoint cadence in simulated
	// cycles: three writes per direct run.
	ckptEvery = 40_000
	// Each finished result of sim is re-delivered (encoded and hashed)
	// deliveries times to time its hit path, about a tenth of a second.
	// Every delivery is one sample. The host's CPU speed changes in
	// phases of seconds, so the deliveries must cover a good share of
	// the run for its percentiles to describe the whole run rather than
	// a few lucky or unlucky moments.
	deliveries = 2000
)

// shaSink keeps the compiler from discarding timed hashing.
var shaSink [sha256.Size]byte

// simOp builds and runs one simulation from scratch.
func simOp(tr *tracer, op, parent int, p point, opts sim.Options) (res sim.Result, newD, runD time.Duration, err error) {
	var s *sim.Sim
	newD = tr.timed("sim/New", parent, op, func(int) { s, err = sim.New(p.cfg, p.req.Bench, opts) })
	if err != nil {
		return res, newD, 0, fmt.Errorf("%s: %w", p.label(), err)
	}
	runD = tr.timed("sim/Run", parent, op, func(int) { res, err = s.Run() })
	if err != nil {
		err = fmt.Errorf("%s: %w", p.label(), err)
	}
	return res, newD, runD, err
}

// deliver times re-deliveries of a finished result — the canonical
// encoding plus its hash, the work answering a repeat from stored
// results costs without HTTP — appending milliseconds per delivery to
// into.
func deliver(req v1.RunRequest, res sim.Result, into *samples) error {
	for range deliveries {
		start := time.Now()
		body, err := encode(req, res)
		if err != nil {
			return err
		}
		shaSink = sha256.Sum256(body)
		*into = append(*into, ms(time.Since(start)))
	}
	return nil
}

// verify checks one result's digest and reports whether it passed.
func verify(e *env, p point, res sim.Result, pinned bool) bool {
	dig, err := digest(p.req, res)
	if err != nil {
		e.chk.fail("%s: encode: %v", p.label(), err)
		return false
	}
	return e.chk.check(p.label(), dig, pinned)
}

// points resolves design points at one quota and seed.
func points(seed int64, quota uint64, specs ...string) ([]point, error) {
	out := make([]point, len(specs))
	for i, s := range specs {
		cfg, bench, _ := strings.Cut(s, "/")
		p, err := newPoint(cfg, bench, quota, seed)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// runSim is the sim workload: one simulation at a time at workers=1,
// alternating the proposed SH-STT-CC/radix point with the baseline
// PR-SRAM-NT/ocean point. An operation is one simulation of each, so
// its latency does not depend on which point a percentile lands on.
func runSim(e *env) (*outcome, error) {
	pts, err := points(e.simSeed, e.quota(simQuota), "SH-STT-CC/radix", "PR-SRAM-NT/ocean")
	if err != nil {
		return nil, err
	}
	oc := &outcome{attempted: 1}
	// One untimed warm-up operation.
	var cycles uint64
	for _, p := range pts {
		res, _, _, err := simOp(nil, 0, 0, p, p.opts)
		if err != nil {
			return nil, err
		}
		if !verify(e, p, res, true) {
			oc.failed = 1
		}
		cycles = max(cycles, res.Cycles)
	}
	if e.traced() {
		return simTraced(e, pts, oc, cycles)
	}
	l := &load{}
	var deliveryAlloc uint64
	l.begin()
	for i := 1; time.Since(l.start) < e.window; i++ {
		oc.attempted++
		var opD time.Duration
		var results []sim.Result
		failed := false
		for _, p := range pts {
			settle()
			res, newD, runD, err := simOp(nil, i, 0, p, p.opts)
			if err != nil {
				failed = true
				e.chk.fail("%v", err)
				break
			}
			opD += newD + runD
			l.setup = append(l.setup, newD.Seconds())
			l.instr += float64(res.Instructions)
			l.simS += runD.Seconds()
			if !verify(e, p, res, true) {
				failed = true
			}
			results = append(results, res)
		}
		if failed {
			oc.failed++
			continue
		}
		// The simulators are garbage by now; collecting them first keeps
		// the re-deliveries' heap, and the peak RSS, that of the results.
		settle()
		h := readHeap()
		var hits samples
		for k, res := range results {
			if err := deliver(pts[k].req, res, &hits); err != nil {
				return nil, err
			}
		}
		deliveryAlloc += readHeap().sub(h).alloc
		l.hits = append(l.hits, hits...)
		l.hitP99s = append(l.hitP99s, hits.quantile(0.99))
		l.ops = append(l.ops, opD.Seconds())
		l.colds = append(l.colds, ms(opD))
	}
	l.finish()
	// alloc_mib_per_op counts the simulations, not the re-deliveries.
	l.heap.alloc -= deliveryAlloc
	oc.metrics = l.metrics()
	return oc, nil
}

// simTraced is the sim workload's traced run: each operation runs
// twice, untraced and then traced with a telemetry collector, so the
// tracing overhead is measured on identical work.
func simTraced(e *env, pts []point, oc *outcome, cycles uint64) (*outcome, error) {
	lr := &layerReport{apiPoints: pts}
	last := make(map[int]sim.Result)
	tw := newTwins()
	for i := 1; tw.open(e.window / 2); i++ {
		p := pts[i%len(pts)]
		err := tw.pair(func(tr *tracer, root int) (time.Duration, error) {
			opts := p.opts
			if tr != nil {
				opts.Telemetry = telemetry.New()
			}
			r, newD, runD, err := simOp(tr, i, root, p, opts)
			if err != nil {
				return 0, err
			}
			if tr != nil {
				lr.sim.add(r, newD, runD)
				last[i%len(pts)] = r
			}
			if !verify(e, p, r, true) {
				oc.failed++
			}
			return newD + runD, nil
		}, e.tr, i)
		oc.attempted += 2
		if err != nil {
			oc.failed++
			e.chk.fail("%v", err)
			continue
		}
	}
	tw.report(lr)
	for k, p := range pts {
		if r, ok := last[k]; ok {
			lr.apiDocs = append(lr.apiDocs, apiDoc{p.req, r})
		}
	}
	if err := probeLayers(e, lr, pts[0], cycles, ""); err != nil {
		return nil, err
	}
	oc.metrics = lr.metrics()
	return oc, nil
}

// ckptRunner holds the ckpt workload's fixed inputs.
type ckptRunner struct {
	p        point
	every    uint64 // cadence of the periodic writes, in cycles
	mid      string // checkpoint written at half the reference run's cycles
	periodic string // target of the direct run's periodic writes
	atMid    uint64 // instructions already retired at the mid checkpoint
}

// ckptLegs is one ckpt operation: a direct run with periodic
// checkpoint writes and a run resumed from the mid-run checkpoint.
type ckptLegs struct {
	direct, resumed          sim.Result
	newD, run1, resume, run2 time.Duration
}

func (l ckptLegs) total() time.Duration { return l.newD + l.run1 + l.resume + l.run2 }

func (c *ckptRunner) op(tr *tracer, op, parent int, tel bool) (ckptLegs, error) {
	var l ckptLegs
	opts := c.p.opts
	opts.Workers = 2
	opts.Checkpoint = sim.CheckpointSpec{Path: c.periodic, EveryCycles: c.every}
	ropts := []sim.ResumeOption{sim.WithWorkers(2)}
	if tel {
		opts.Telemetry = telemetry.New()
		ropts = append(ropts, sim.WithTelemetry(telemetry.New()))
	}
	var err error
	l.direct, l.newD, l.run1, err = simOp(tr, op, parent, c.p, opts)
	if err != nil {
		return l, err
	}
	var s *sim.Sim
	l.resume = tr.timed("checkpoint/Resume", parent, op, func(int) { s, err = sim.Resume(c.mid, ropts...) })
	if err != nil {
		return l, fmt.Errorf("resume %s: %w", c.p.label(), err)
	}
	l.run2 = tr.timed("sim/Run", parent, op, func(int) { l.resumed, err = s.Run() })
	return l, err
}

// check verifies both legs against the uninterrupted digest and
// returns how many failed.
func (c *ckptRunner) check(e *env, l ckptLegs) int {
	failed := 0
	for _, r := range []sim.Result{l.direct, l.resumed} {
		if !verify(e, c.p, r, true) {
			failed++
		}
	}
	return failed
}

// newCkptRunner runs the uninterrupted reference (workers=1, no
// checkpoint), then writes the mid-run checkpoint every operation
// resumes from.
func newCkptRunner(e *env, oc *outcome) (*ckptRunner, error) {
	pts, err := points(e.simSeed, e.quota(ckptQuota), "SH-STT-CC/radix")
	if err != nil {
		return nil, err
	}
	c := &ckptRunner{p: pts[0], every: e.quota(ckptEvery), mid: filepath.Join(e.dir, "mid.ckpt"), periodic: filepath.Join(e.dir, "periodic.ckpt")}
	ref, _, _, err := simOp(nil, 0, 0, c.p, c.p.opts)
	if err != nil {
		return nil, err
	}
	oc.attempted++
	if !verify(e, c.p, ref, true) {
		oc.failed++
	}
	if err := writeMid(c.p, ref.Cycles/2, 2, c.mid); err != nil {
		return nil, err
	}
	c.atMid, err = retiredAt(c.mid)
	return c, err
}

// writeMid runs a point with a single checkpoint at cycle at.
func writeMid(p point, at uint64, workers int, path string) error {
	opts := p.opts
	opts.Workers = workers
	opts.Checkpoint = sim.CheckpointSpec{Path: path, AtCycle: at}
	_, _, _, err := simOp(nil, 0, 0, p, opts)
	return err
}

// retiredAt reads how many instructions a checkpointed chip had
// retired, through the telemetry of a resumed but not yet run sim.
func retiredAt(path string) (uint64, error) {
	col := telemetry.New()
	if _, err := sim.Resume(path, sim.WithTelemetry(col)); err != nil {
		return 0, err
	}
	var n uint64
	for _, m := range col.Snapshot().Metrics {
		if strings.HasPrefix(m.Name, "cluster.") && strings.HasSuffix(m.Name, ".instructions") {
			n += uint64(m.Value)
		}
	}
	return n, nil
}

// runCkpt is the ckpt workload: SH-STT-CC/radix at workers=2 with
// periodic checkpoint writes, then a resume from a mid-run checkpoint
// run to completion; both results must match the uninterrupted one.
func runCkpt(e *env) (*outcome, error) {
	oc := &outcome{}
	c, err := newCkptRunner(e, oc)
	if err != nil {
		return nil, err
	}
	// One untimed warm-up operation.
	l, err := c.op(nil, 0, 0, false)
	if err != nil {
		return nil, err
	}
	oc.attempted++
	if c.check(e, l) > 0 {
		oc.failed++
	}
	if e.traced() {
		return ckptTraced(e, c, oc)
	}
	ld := &load{}
	ld.begin()
	for i := 1; time.Since(ld.start) < e.window; i++ {
		settle()
		oc.attempted++
		l, err := c.op(nil, i, 0, false)
		if err != nil {
			oc.failed++
			e.chk.fail("%v", err)
			continue
		}
		if c.check(e, l) > 0 {
			oc.failed++
		}
		ld.setup = append(ld.setup, l.newD.Seconds())
		ld.ops = append(ld.ops, l.total().Seconds())
		ld.hits = append(ld.hits, ms(l.resume+l.run2))
		ld.colds = append(ld.colds, ms(l.newD+l.run1))
		ld.instr += float64(l.direct.Instructions + l.resumed.Instructions - c.atMid)
		ld.simS += (l.run1 + l.resume + l.run2).Seconds()
	}
	ld.finish()
	oc.metrics = ld.metrics()
	return oc, nil
}

// ckptTraced is the ckpt workload's traced run, with twin untraced and
// traced operations and the periodic writes counted as they land.
func ckptTraced(e *env, c *ckptRunner, oc *outcome) (*outcome, error) {
	lr := &layerReport{apiPoints: []point{c.p}}
	w, err := watchRenames(e.dir)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var last ckptLegs
	tw := newTwins()
	for i := 1; tw.open(e.window / 2); i++ {
		err := tw.pair(func(tr *tracer, root int) (time.Duration, error) {
			l, err := c.op(tr, i, root, tr != nil)
			if err != nil {
				return 0, err
			}
			if tr != nil {
				lr.sim.add(l.direct, l.newD, l.run1)
				last = l
			}
			if c.check(e, l) > 0 {
				oc.failed++
			}
			return l.total(), nil
		}, e.tr, i)
		oc.attempted += 2
		if err != nil {
			oc.failed++
			e.chk.fail("%v", err)
			continue
		}
	}
	lr.apiDocs = []apiDoc{{c.p.req, last.direct}}
	writes, err := w.count(filepath.Base(c.periodic))
	if err != nil {
		return nil, err
	}
	lr.writesPerOp = float64(writes) / float64(tw.n*2)
	tw.report(lr)
	if err := probeLayers(e, lr, c.p, 0, c.mid); err != nil {
		return nil, err
	}
	oc.metrics = lr.metrics()
	return oc, nil
}
