package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"satwatch/internal/obs"
)

// usage is one reading of the process's CPU time and allocation counters,
// taken at a phase boundary.
type usage struct {
	cpu        time.Duration // user + sys, from getrusage
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
	}
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssMiB is the process's resident set size now (0 if unreadable).
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// phaseMetrics turns the usage between two readings into the per-flow
// CPU and allocation metrics every workload reports.
func phaseMetrics(m map[string]float64, a, b usage, flows int) {
	n := float64(flows)
	if n == 0 {
		n = 1
	}
	m["cpu_us_per_flow"] = float64((b.cpu - a.cpu).Microseconds()) / n
	m["runtime.allocs_per_flow"] = float64(b.mallocs-a.mallocs) / n
	m["runtime.alloc_bytes_per_flow"] = float64(b.allocBytes-a.allocBytes) / n
	m["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
}

// counter reads a registry counter or gauge (0 when unregistered).
func counter(name string) float64 {
	if s, ok := obs.Default.Get(name); ok {
		return s.Value
	}
	return 0
}

// counters snapshots several registry values at once, for deltas.
func counters(names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = counter(n)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it calls.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// spans keeps a run's layer spans in memory until the run ends.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// do runs fn as a span named name under parent and returns its duration.
func (s *spans) do(name, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	s.list = append(s.list, span{
		Name: name, Parent: parent,
		StartUS: start.Sub(s.t0).Microseconds(), EndUS: end.Sub(s.t0).Microseconds(),
	})
	return end.Sub(start)
}

// write stores the spans as JSON lines.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, sp := range s.list {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// startCPUProfile samples this process's CPU into path until the
// returned stop function is first called.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return sync.OnceValue(func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}), nil
}
