package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"
)

// samples is a set of timings or sizes in one unit.
type samples []float64

// quantile returns the q-quantile (0..1) by linear interpolation
// between closest ranks; NaN for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := slices.Clone(s)
	slices.Sort(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// machine describes the host every figure was measured on.
func machine() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the host's total and stolen CPU time from /proc/stat
// (zeros where that file does not exist).
func cpuTicks() (total, steal uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		var v uint64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// heap samples the runtime's cumulative allocation and GC counters.
type heap struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func readHeap() heap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heap{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// sub returns the counters accumulated between h0 and h.
func (h heap) sub(h0 heap) heap {
	return heap{alloc: h.alloc - h0.alloc, gcs: h.gcs - h0.gcs, pauseNs: h.pauseNs - h0.pauseNs}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// settle collects garbage and returns the freed memory to the OS,
// outside any timed region, so every operation starts from the heap
// state of a fresh process rather than from whatever the background
// scavenger happened to keep.
func settle() { debug.FreeOSMemory() }
