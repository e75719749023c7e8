// Consolidation shows the dynamic core-management system at work on
// radix (the paper's Figure 12): the greedy EPI search tracks the
// workload's alternating histogram/permutation phases, consolidating
// threads onto fewer cores whenever the cluster is memory-bound, and the
// oracle shows how much headroom the greedy search leaves.
package main

import (
	"fmt"
	"log"

	v1 "respin/internal/api/v1"
	"respin/internal/config"
	"respin/internal/report"
	"respin/internal/sim"
)

// run executes one request to completion.
func run(req v1.RunRequest) sim.Result {
	if err := req.Normalize(); err != nil {
		log.Fatal(err)
	}
	cfg, opts, err := req.Resolve()
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(cfg, req.Bench, opts)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	const bench = "radix"
	const quota = 200_000

	traced := func(kind config.ArchKind) sim.Result {
		return run(v1.RunRequest{Config: kind.String(), Bench: bench, Quota: quota, EpochTrace: true})
	}

	fmt.Printf("running %s under greedy and oracle consolidation...\n\n", bench)
	plain := traced(config.SHSTT)
	greedy := traced(config.SHSTTCC)
	oracle := traced(config.SHSTTCCOracle)

	fmt.Print(report.Trace("greedy (SH-STT-CC) active cores, cluster 0:", &greedy.Trace, 16, 24, 32))
	fmt.Println()
	fmt.Print(report.Trace("oracle active cores, cluster 0:", &oracle.Trace, 16, 24, 32))

	fmt.Printf("\nenergy vs SH-STT (no consolidation): greedy %s, oracle %s\n",
		report.Pct(greedy.EnergyPJ/plain.EnergyPJ-1),
		report.Pct(oracle.EnergyPJ/plain.EnergyPJ-1))
	fmt.Printf("migrations: greedy %d, oracle %d; mean active cores: greedy %.1f, oracle %.1f\n",
		greedy.Stats.Migrations, oracle.Stats.Migrations,
		greedy.ActiveCores.Mean(), oracle.ActiveCores.Mean())
}
