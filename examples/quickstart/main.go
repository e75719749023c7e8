// Quickstart: build the paper's proposed system (shared STT-RAM caches
// with dynamic core consolidation), run one benchmark, and compare it
// against the conventional near-threshold baseline.
//
// A run is described the same way everywhere — by a v1.RunRequest, the
// document respin-serve accepts and respin-sim builds from its flags.
// Resolve turns it into the chip configuration and simulator options.
package main

import (
	"fmt"
	"log"

	v1 "respin/internal/api/v1"
	"respin/internal/report"
	"respin/internal/sim"
	"respin/internal/trace"
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
	const bench = "fft"
	const quota = 60_000

	fmt.Printf("running %s on the PR-SRAM-NT baseline and the proposed SH-STT-CC...\n\n", bench)
	b := run(v1.RunRequest{Config: "PR-SRAM-NT", Bench: bench, Quota: quota})
	p := run(v1.RunRequest{Config: "SH-STT-CC", Bench: bench, Quota: quota})

	t := report.NewTable("", "metric", "PR-SRAM-NT", "SH-STT-CC", "change")
	t.AddRow("execution time", report.Millis(b.TimePS), report.Millis(p.TimePS),
		report.Pct(float64(p.TimePS)/float64(b.TimePS)-1))
	t.AddRow("energy", report.Joules(b.EnergyPJ), report.Joules(p.EnergyPJ),
		report.Pct(p.EnergyPJ/b.EnergyPJ-1))
	t.AddRow("average power", report.Watts(b.AvgPowerW), report.Watts(p.AvgPowerW),
		report.Pct(p.AvgPowerW/b.AvgPowerW-1))
	fmt.Print(t.String())

	fmt.Printf("\nmean active cores per cluster under consolidation: %.1f of 16\n", p.ActiveCores.Mean())
	fmt.Printf("available benchmarks: %v\n", trace.Names())
}
