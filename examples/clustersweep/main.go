// Clustersweep reproduces the Section V.D study: how large should a
// cluster sharing one L1 be? Performance improves up to 16 cores per
// cluster, then collapses at 32 as the bigger, slower shared cache is
// overwhelmed.
package main

import (
	"fmt"
	"log"

	v1 "respin/internal/api/v1"
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
	const bench = "ocean"
	const quota = 50_000

	bres := run(v1.RunRequest{Config: "PR-SRAM-NT", Bench: bench, Quota: quota})

	t := report.NewTable(fmt.Sprintf("shared-L1 cluster-size sweep (%s)", bench),
		"cores/cluster", "shared L1", "time vs baseline", "half-misses", "1-cycle reads")
	for _, cs := range []int{4, 8, 16, 32} {
		res := run(v1.RunRequest{Config: "SH-STT", Bench: bench, Quota: quota, Cluster: cs})
		t.AddRow(fmt.Sprintf("%d", cs),
			fmt.Sprintf("%dKB", 16*cs),
			report.Norm(float64(res.Cycles)/float64(bres.Cycles)),
			report.PctU(res.HalfMissRate),
			report.PctU(res.ReadCoreCycles.Fraction(1)))
	}
	fmt.Print(t.String())
}
