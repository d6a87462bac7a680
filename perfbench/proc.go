package main

import (
	rtmetrics "runtime/metrics"
	"syscall"
)

// peakRSSMB returns this process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	gcCPU, busyCPU     float64 // cpu-seconds: GC work; everything but idle
	gcCycles           uint64
	allocBytes, allocs uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return rtSample{
		gcCPU:      s[0].Value.Float64(),
		busyCPU:    s[1].Value.Float64() - s[2].Value.Float64(),
		gcCycles:   s[3].Value.Uint64(),
		allocBytes: s[4].Value.Uint64(),
		allocs:     s[5].Value.Uint64(),
	}
}

// runtimeMetrics reports the runtime layer over [a, b], per unit of work
// for the counts.
func runtimeMetrics(a, b rtSample, units int) metrics {
	m := metrics{}
	frac := 0.0
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		frac = (b.gcCPU - a.gcCPU) / busy
	}
	m.set("runtime.gc_cpu_frac", frac, "ratio")
	m.set("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles)/float64(units), "count")
	m.set("runtime.alloc_mb", float64(b.allocBytes-a.allocBytes)/1e6/float64(units), "MB")
	return m
}
