package main

import (
	"fmt"

	"respin/internal/cluster"
	"respin/internal/coherence"
	"respin/internal/config"
	"respin/internal/cpu"
	"respin/internal/mem"
	"respin/internal/power"
	"respin/internal/sharedcache"
	"respin/internal/trace"
	"respin/internal/variation"
)

// Layer drivers: each times one layer's public call on access streams
// from trace.NewGen with the workload's profiles, seed and thread ids.
// A span covers a batch of calls, and a metric is the median over
// batches of the time per call.

const (
	threads      = 16   // one cluster's worth of threads
	batch        = 4096 // calls per timed batch
	cycleBatch   = 256  // cycles per timed batch for cycle-stepped layers
	lowerLatency = 100  // fixed latency (cycles) of the memory below a driven cluster or core
)

// evSink keeps the compiler from discarding timed calls.
var evSink trace.Event

// timeBatch runs one batch of n calls inside a span and appends the
// time per call in nanoseconds to into.
func timeBatch(tr *tracer, name string, n int, into *samples, fn func()) {
	if n == 0 {
		return
	}
	d := tr.timed(fmt.Sprintf("%s x%d", name, n), 0, 0, func(int) { fn() })
	*into = append(*into, float64(d.Nanoseconds())/float64(n))
}

// access is one load or store of one thread.
type access struct {
	thread int
	addr   uint64
	write  bool
}

// accesses interleaves the first n loads and stores of each of the
// workload's threads.
func accesses(prof trace.Profile, seed int64, n int) []access {
	gens := make([]*trace.Gen, threads)
	for t := range gens {
		gens[t] = trace.NewGen(prof, seed, t, 0)
	}
	out := make([]access, 0, n*threads)
	for range n {
		for t, g := range gens {
			ev := g.Next()
			for ev.Type == trace.Barrier {
				ev = g.Next()
			}
			out = append(out, access{thread: t, addr: ev.Addr, write: ev.Type == trace.Store})
		}
	}
	return out
}

// driveTrace times trace.Gen.Next.
func driveTrace(tr *tracer, profs []trace.Profile, seed int64) samples {
	var out samples
	for _, prof := range profs {
		for b := range 32 {
			g := trace.NewGen(prof, seed, b%threads, 0)
			timeBatch(tr, "trace/Gen.Next", batch, &out, func() {
				for range batch {
					evSink = g.Next()
				}
			})
		}
	}
	return out
}

// driveMem times mem.Cache.Access over the access stream on the shared
// L1D geometry, and mem.Cache.Fill for each batch's misses.
func driveMem(tr *tracer, profs []trace.Profile, seed int64) (accessNs, fillNs samples) {
	p := config.New(config.SHSTTCC, config.Medium).Hierarchy.L1D
	for _, prof := range profs {
		c := mem.NewCache(p)
		evs := accesses(prof, seed, 16*batch/threads)
		var miss []access
		for i := 0; i+batch <= len(evs); i += batch {
			miss = miss[:0]
			timeBatch(tr, "mem/Cache.Access", batch, &accessNs, func() {
				for _, a := range evs[i : i+batch] {
					if !c.Access(a.addr, a.write).Hit {
						miss = append(miss, a)
					}
				}
			})
			timeBatch(tr, "mem/Cache.Fill", len(miss), &fillNs, func() {
				for _, a := range miss {
					c.Fill(a.addr, a.write)
				}
			})
		}
	}
	return accessNs, fillNs
}

// driveCoherence times coherence.Directory.Read and Write on the
// private-L1 baseline's geometry, each thread on its own core.
func driveCoherence(tr *tracer, profs []trace.Profile, seed int64) (read, write samples) {
	p := config.New(config.PRSRAMNT, config.Medium).Hierarchy.L1D
	for _, prof := range profs {
		d := coherence.New(threads, p)
		evs := accesses(prof, seed, 16*batch/threads)
		for i := 0; i+batch <= len(evs); i += batch {
			var rs, ws []access
			for _, a := range evs[i : i+batch] {
				if a.write {
					ws = append(ws, a)
				} else {
					rs = append(rs, a)
				}
			}
			timeBatch(tr, "coherence/Directory.Read", len(rs), &read, func() {
				for _, a := range rs {
					d.Read(a.thread, a.addr)
				}
			})
			timeBatch(tr, "coherence/Directory.Write", len(ws), &write, func() {
				for _, a := range ws {
					d.Write(a.thread, a.addr)
				}
			})
		}
	}
	return read, write
}

// driveSharedCache times one arbitration cycle of the shared-L1
// controller — the cycle's Submit calls plus Tick — with every thread
// offering its next access after its instruction gap.
func driveSharedCache(tr *tracer, profs []trace.Profile, seed int64) samples {
	var out samples
	span := config.MaxCoreMultiple - config.MinCoreMultiple + 1
	for _, prof := range profs {
		ctrl := sharedcache.New(threads, sharedcache.WithSeed(seed))
		gens := make([]*trace.Gen, threads)
		next := make([]trace.Event, threads)
		ready := make([]uint64, threads)
		for t := range gens {
			gens[t] = trace.NewGen(prof, seed, t, 0)
			next[t] = gens[t].Next()
		}
		var cycle uint64
		for range 32 {
			timeBatch(tr, "sharedcache/Controller.Tick", cycleBatch, &out, func() {
				for range cycleBatch {
					for t, g := range gens {
						ev := next[t]
						if ready[t] > cycle {
							continue
						}
						req := sharedcache.Request{Core: t, Write: ev.Type == trace.Store, Multiple: config.MinCoreMultiple + t%span, Tag: ev.Addr}
						if ev.Type == trace.Barrier || ctrl.Submit(req) {
							next[t] = g.Next()
							ready[t] = cycle + next[t].Gap/4
						}
					}
					ctrl.Tick()
					cycle++
				}
			})
		}
	}
	return out
}

// fixedMem is a memory system for driven cores: every load and fetch
// completes lowerLatency core cycles after issue, stores never stall.
type fixedMem struct {
	now   uint64
	cores []*cpu.Core
	due   []pending
}

type pending struct {
	at    uint64
	core  int
	fetch bool
}

func (m *fixedMem) IssueLoad(v int, _ uint64) bool {
	m.due = append(m.due, pending{at: m.now + lowerLatency, core: v})
	return true
}

func (m *fixedMem) IssueStore(int, uint64) bool { return true }

func (m *fixedMem) IssueIFetch(v int, _ uint64) bool {
	m.due = append(m.due, pending{at: m.now + lowerLatency, core: v, fetch: true})
	return true
}

// tick lands due completions and releases a barrier every core reached.
func (m *fixedMem) tick() {
	m.now++
	kept := m.due[:0]
	for _, p := range m.due {
		switch {
		case p.at > m.now:
			kept = append(kept, p)
		case p.fetch:
			m.cores[p.core].CompleteIFetch()
		default:
			m.cores[p.core].CompleteLoad()
		}
	}
	m.due = kept
	for _, c := range m.cores {
		if c.State() != cpu.AtBarrier {
			return
		}
	}
	for _, c := range m.cores {
		c.ReleaseBarrier()
	}
}

// driveCPU times cpu.Core.Step for one cluster's threads over the
// fixed-latency memory.
func driveCPU(tr *tracer, profs []trace.Profile, seed int64) samples {
	var out samples
	for _, prof := range profs {
		m := &fixedMem{}
		for t := range threads {
			m.cores = append(m.cores, cpu.New(t, trace.NewGen(prof, seed, t, 0), m))
		}
		for range 32 {
			timeBatch(tr, "cpu/Core.Step", cycleBatch*threads, &out, func() {
				for range cycleBatch {
					for _, c := range m.cores {
						c.Step()
					}
					m.tick()
				}
			})
		}
	}
	return out
}

// driveCluster times cluster.Tick for one cluster of each point, its
// lower-level requests answered through FinishLower at a fixed latency
// and its barriers released the cycle after everyone arrives.
func driveCluster(tr *tracer, pts []point) samples {
	var out samples
	for _, p := range pts {
		cfg := p.cfg
		vm := variation.Generate(cfg.VariationSeed, 8, 8, cfg.CoreVdd, variation.DefaultParams())
		cl := cluster.New(cluster.Params{
			Config:     cfg,
			Chip:       power.NewChip(cfg),
			PCores:     vm.ClusterCores(0, cfg.ClusterSize),
			Bench:      trace.MustByName(p.req.Bench),
			Seed:       p.req.Seed,
			QuotaInstr: p.req.Quota,
		})
		for b := 0; b < 32 && !cl.Done(); b++ {
			timeBatch(tr, "cluster/Cluster.Tick", cycleBatch, &out, func() {
				for range cycleBatch {
					if cl.Unfinished() > 0 && cl.BarrierWaiters() == cl.Unfinished() {
						cl.ScheduleBarrierRelease(cl.Now() + 1)
					}
					cl.Tick()
					for i := range cl.PendingLowerLen() {
						if r := cl.LowerRequestAt(i); !r.Write {
							cl.FinishLower(i, r.Start+lowerLatency)
						}
					}
					cl.ResetLower()
				}
			})
		}
	}
	return out
}

// profiles returns the distinct benchmark profiles of the points.
func profiles(pts []point) []trace.Profile {
	var out []trace.Profile
	seen := map[string]bool{}
	for _, p := range pts {
		if !seen[p.req.Bench] {
			seen[p.req.Bench] = true
			out = append(out, trace.MustByName(p.req.Bench))
		}
	}
	return out
}
