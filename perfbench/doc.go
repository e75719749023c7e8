// Command perfbench is the repository's benchmark: three closed-loop
// workloads that measure the simulator, its checkpoints and the
// evaluation service end to end, and a traced run that breaks the same
// work down layer by layer. It drives every layer from outside,
// through public calls only.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload sim|ckpt|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Lines before it state the
// machine (CPU model, nproc, GOMAXPROCS, Go version) and the host's
// steal share during the run, every metric with its sample count, and
// every failed check. The seed only generates inputs: simulation seeds, the hit
// sequence and the cold requests' fresh seeds.
//
// # Workloads
//
// Every workload is a closed loop: a caller sends its next operation
// only after the previous one completed. Each starts with one untimed
// warm-up operation, and each timing it reports is a median or an
// aggregate over many operations. Before each operation of sim and
// ckpt, outside the timed region, the benchmark collects garbage and
// returns freed memory to the OS (debug.FreeOSMemory), so every
// operation starts from the heap state of a fresh process.
//
//   - sim: one simulation at a time at workers=1, no checkpoint, no
//     HTTP, alternating the proposed SH-STT-CC/radix point (shared L1
//     arbitration plus consolidation) with the baseline PR-SRAM-NT/ocean
//     point (private L1s plus the MESI directory). The simulation hot
//     path — trace, cpu, sharedcache, mem, coherence, cluster, sim —
//     does all the work; serve hits bypass it. An operation is one
//     simulation of each point.
//   - ckpt: SH-STT-CC/radix at workers=2 with a checkpoint written every
//     40k cycles, then sim.Resume from a mid-run checkpoint run to
//     completion. Both results must match the uninterrupted run. Chip
//     state is written out (gob, SHA-256, fsync, rename) and read back,
//     and clusters step on the epoch worker pool, which sim bypasses.
//   - serve: an in-process respin-serve (serve.New with a journal,
//     runner Jobs=1) on a loopback listener, and two keep-alive clients
//     POSTing /v1/run. Every 400th request of a client is cold: a fresh
//     seed at a small quota, which runs through the pool, the simulator
//     and the journal (with a checkpoint every 20k cycles). The rest
//     repeat a pre-warmed set of six requests, answered from finished
//     work through api/v1 and HTTP (with a journal attached the server
//     answers them from the journal's committed results, ahead of the
//     runner's cache). The run prints the hit share the server counted. Memory is returned to the OS before each set-up
//     repeat and before the window, not per request, where the
//     collection would stop the other client's timed request. Its two
//     clients saturate both CPUs of a small host, so its latencies
//     follow the host's CPU speed more closely than those of sim and
//     ckpt; on a shared 2-CPU guest they drifted by more than the
//     benchmark's bounds between runs minutes apart, so BENCHMARK.json
//     does not list it. The traced runs of sim and ckpt still probe its
//     layers (api/v1, serve, experiments).
//
// # Output checks
//
// Every result is encoded canonically (v1.NewResult, v1.EncodeBytes)
// and hashed without its telemetry snapshot. The digest must equal
// every other repeat of the same point in the run and, at seed 1, the
// digest committed in digests.json. Each served body must be
// byte-identical to the encoding of a direct sim.Run of the same
// request. A mismatch, an error or any reply other than 200 counts as
// a failed operation.
//
// # End-to-end metrics (--trace 0)
//
// An operation is one simulation of each point on sim, the direct and
// the resumed run together on ckpt, and one request on serve.
//
//	setup_s          s         lower   median set-up time: sim.New (sim, ckpt);
//	                                   serve.New replaying the journal plus
//	                                   the first 200 from /v1/healthz (serve)
//	sim_minstr_per_s Minstr/s  higher  simulated instructions retired per host
//	                                   second in Run and Resume (serve: in cold
//	                                   requests, per second of their latency)
//	op_s_p50         s         lower   median seconds per operation
//	hit_ms_p50/p99   ms        lower   latency of answering from stored work:
//	                                   cache-hit requests (serve); the resumed
//	                                   run, sim.Resume plus Run (ckpt);
//	                                   re-delivering a finished result, its
//	                                   canonical encoding plus hash, each
//	                                   delivery timed; p99 is the median over
//	                                   operations of each one's p99 (sim)
//	cold_ms_p50/p90  ms        lower   latency of simulating from scratch: cold
//	                                   requests (serve); the direct run,
//	                                   sim.New plus Run with its checkpoint
//	                                   writes (ckpt); every operation (sim)
//	req_per_s        1/s       higher  operations completed per second of the
//	                                   window
//	alloc_mib_per_op MiB       lower   Go heap allocated per operation
//	max_rss_mib      MiB       lower   peak resident memory of the process
//
// # Per-layer metrics (--trace 1)
//
// The traced run runs each operation twice, untraced and then traced
// with a telemetry collector (serve: an untraced pass, then a traced
// pass of the same request counts), keeps a span around every public
// call in memory, writes the spans and each layer's self time to
// .bench_build/traces/ when it ends, and then runs the layer drivers
// and probes below on the workload's own points, seed and profiles.
// Lower is better unless marked higher.
//
//	trace.next_ns, cpu.step_ns        ns  Gen.Next; Core.Step over a fixed-latency memory
//	mem.access_ns, mem.fill_ns        ns  Cache.Access and Cache.Fill on the shared L1D
//	mem.l1d_read_miss_ratio           -   L1D read misses per read (telemetry)
//	cluster.tick_ns                   ns  Cluster.Tick, lower requests answered via
//	                                      FinishLower at a fixed latency
//	sharedcache.tick_ns               ns  one arbitration cycle: Submit calls plus Tick
//	sharedcache.half_miss_ratio       -   shared-L1 reads with a half-miss per read
//	coherence.read_ns, .write_ns      ns  Directory.Read and Directory.Write
//	sim.new_ms, sim.run_s             ms, s  medians over the from-scratch simulations
//	sim.ns_per_instr                  ns  Run time per simulated instruction
//	sim.ns_per_ticked_cycle           ns  Run time per cycle not fast-forwarded
//	sim.ff_ratio (higher)             -   fast-forwarded share of cycles
//	sim.epochs                        count  scheduler epochs per simulation
//	sim.drained_per_epoch (higher)    count  L3/DRAM requests drained per epoch
//	sim.workers_speedup (higher)      x   median Run at workers=1 over workers=2 on the
//	                                      ckpt point; printed UNVERIFIED below 2 CPUs
//	checkpoint.save_ms, .restore_ms   ms  Sim.WriteCheckpoint; sim.Resume
//	checkpoint.mib                    MiB size of one checkpoint
//	checkpoint.writes_per_op          count  checkpoint renames per operation (ckpt) or
//	                                      per cold request (serve); 0 on sim
//	experiments.queue_wait_ms         ms  wait before a simulating Runner.DoFunc call ran
//	experiments.hit_us                us  Runner.DoFunc answered from the cache
//	experiments.cache_hit_ratio (higher)  cache hits per call for a two-caller schedule
//	api.decode_us, api.encode_us      us  DecodeRunRequest; NewResult plus EncodeBytes
//	api.result_kib                    KiB size of an encoded result
//	serve.handler_hit_us              us  Handler.ServeHTTP answering a journaled request
//	serve.journal_replay_ms           ms  serve.New replaying a journal
//	serve.rejected_ratio              -   429 and 503 replies per request
//	gc.cycles_per_op, gc.pause_ms_per_op  collections and pause time per operation,
//	                                      the benchmark's own forced collections excluded
//	bench.trace_overhead_ratio        x   traced over untraced time for the same operations
//
// Time metrics of the drivers are medians over batches of calls; the
// ratio and count metrics come from telemetry snapshots and repeat
// exactly for a seed.
package main
