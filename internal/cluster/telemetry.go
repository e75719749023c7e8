package cluster

import (
	"respin/internal/mem"
	"respin/internal/sharedcache"
	"respin/internal/telemetry"
)

// registerTelemetry publishes the cluster's metric sources into its
// collector (prefixed "cluster.<id>." by the Sim). All values are read
// through closures at snapshot time, so the simulation pays nothing per
// cycle for an attached collector.
func (cl *Cluster) registerTelemetry() {
	c := cl.tel
	c.RegisterCounter("instructions", func() uint64 { return cl.Stats.Instructions })
	c.RegisterCounter("coherence_reads", func() uint64 { return cl.Stats.CoherenceReads })
	c.RegisterCounter("spin_accesses", func() uint64 { return cl.Stats.SpinAccesses })
	c.RegisterCounter("migrations", func() uint64 { return cl.Stats.Migrations })
	c.RegisterCounter("hw_switches", func() uint64 { return cl.Stats.HWSwitches })
	c.RegisterCounter("power_ups", func() uint64 { return cl.Stats.PowerUps })
	c.RegisterCounter("l2_accesses", func() uint64 { return cl.Stats.L2Accesses })
	c.RegisterCounter("l3_accesses", func() uint64 { return cl.Stats.L3Accesses })
	c.RegisterGauge("active_cores", func() float64 { return float64(cl.ActiveCores()) })
	c.RegisterGauge("dead_cores", func() float64 { return float64(cl.DeadCores()) })
	c.RegisterHistogram("load_latency", cl.Stats.LoadLatency)
	mem.RegisterTelemetry(c.Child("l2"), cl.l2)
	if cl.ctrlD != nil {
		registerController(c.Child("l1d"), cl.ctrlD)
		registerController(c.Child("l1i"), cl.ctrlI)
		mem.RegisterTelemetry(c.Child("l1d.cache"), cl.sharedL1D)
		mem.RegisterTelemetry(c.Child("l1i.cache"), cl.sharedL1I)
	} else {
		dcaches := make([]*mem.Cache, len(cl.privI))
		for i := range dcaches {
			dcaches[i] = cl.dir.Cache(i)
		}
		mem.RegisterTelemetry(c.Child("l1d.cache"), dcaches...)
		mem.RegisterTelemetry(c.Child("l1i.cache"), cl.privI...)
	}
}

// registerController publishes the statistics of one time-multiplexed
// shared-L1 controller (the paper's half-miss machinery).
func registerController(c *telemetry.Collector, ctrl *sharedcache.Controller) {
	c.RegisterCounter("requests", ctrl.Stats.Requests.Value)
	c.RegisterCounter("reads", ctrl.Stats.Reads.Value)
	c.RegisterCounter("writes", ctrl.Stats.Writes.Value)
	c.RegisterCounter("half_misses", ctrl.Stats.HalfMisses.Value)
	c.RegisterCounter("read_half_miss", ctrl.Stats.RequestsWithHalfMiss.Value)
	c.RegisterCounter("write_retries", ctrl.Stats.WriteRetries.Value)
	c.RegisterCounter("write_aborts", ctrl.Stats.WriteAborts.Value)
	c.RegisterHistogram("arrivals_per_cycle", ctrl.Stats.ArrivalsPerCycle)
	c.RegisterHistogram("read_core_cycles", ctrl.Stats.ReadCoreCycles)
}

// emitRetry records an STT-RAM write-verify retry (or abort) event at
// the given cache level. Callers guard on cl.tel != nil so the
// untelemetered hot path pays only a pointer test. The event is
// buffered rather than emitted: the cluster may be running ahead of the
// others within an epoch, and the emitter's global sequence numbers must
// be assigned in (cycle, cluster) order, which only the chip-level drain
// knows.
func (cl *Cluster) emitRetry(level string, retries int, aborted bool) {
	typ := "fault.stt_retry"
	if aborted {
		typ = "fault.stt_abort"
	}
	cl.pendingEvents = append(cl.pendingEvents, PendingEvent{
		Collector: cl.tel,
		Type:      typ,
		Cycle:     cl.now,
		Attrs: map[string]any{
			"cluster": cl.id,
			"level":   level,
			"retries": retries,
		},
	})
}
