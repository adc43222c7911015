package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the process's user plus system CPU time. It counts the
// garbage collector's work but not time the machine withheld from the
// process, which makes it steadier than wall time on a shared host.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// allocBytes reads the cumulative heap allocation in bytes without
// stopping the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcState is a GC counter snapshot; deltas of two snapshots bracket a pass.
type gcState struct {
	count   uint32
	pauseNs uint64
	alloc   uint64
}

// readGC stops the world briefly, so it is only called between passes.
func readGC() gcState {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcState{count: ms.NumGC, pauseNs: ms.PauseTotalNs, alloc: ms.TotalAlloc}
}

// meter brackets one timed operation: CPU seconds, wall seconds and bytes
// allocated.
type meter struct {
	cpu   float64
	wall  time.Time
	alloc uint64
}

func startMeter() meter { return meter{cpu: cpuSeconds(), wall: time.Now(), alloc: allocBytes()} }

// stop returns the CPU seconds, wall seconds and allocated MB since start.
func (m meter) stop() (cpu, wall, allocMB float64) {
	return cpuSeconds() - m.cpu, time.Since(m.wall).Seconds(), float64(allocBytes()-m.alloc) / 1e6
}

// median returns the middle value (mean of the two middle ones for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// sumOfMedians is the pass-time estimator: the median time of every
// instance over the passes, summed over the instances. times[i] holds
// instance i's per-pass samples.
func sumOfMedians(times [][]float64) float64 {
	total := 0.0
	for _, t := range times {
		total += median(t)
	}
	return total
}
