package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// rtSample is one reading of the runtime's cumulative counters, taken
// from outside the program around each timed phase.
type rtSample struct {
	gcCPU, totalCPU float64 // seconds
	procCPU         float64 // seconds of user and system CPU the process used
	pause           float64 // seconds of GC stop-the-world, estimated from the histogram
	allocBytes      uint64
	allocObjects    uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s rtSample
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := ms[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 || hi > 1e300 { // open-ended edge buckets: use the finite bound
				if lo < 0 {
					lo = 0
				}
				hi = lo
			}
			s.pause += float64(c) * (lo + hi) / 2
		}
	}
	if ms[3].Value.Kind() == metrics.KindUint64 {
		s.allocBytes = ms[3].Value.Uint64()
	}
	if ms[4].Value.Kind() == metrics.KindUint64 {
		s.allocObjects = ms[4].Value.Uint64()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.procCPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return s
}

// rtAccount sums runtime counter deltas over the timed phases only.
type rtAccount struct {
	open  rtSample
	delta rtSample
}

// begin and end bracket one timed phase; a nil account is off.
func (a *rtAccount) begin() {
	if a != nil {
		a.open = readRuntime()
	}
}

func (a *rtAccount) end() {
	if a == nil {
		return
	}
	s := readRuntime()
	a.delta.gcCPU += s.gcCPU - a.open.gcCPU
	a.delta.totalCPU += s.totalCPU - a.open.totalCPU
	a.delta.procCPU += s.procCPU - a.open.procCPU
	a.delta.pause += s.pause - a.open.pause
	a.delta.allocBytes += s.allocBytes - a.open.allocBytes
	a.delta.allocObjects += s.allocObjects - a.open.allocObjects
}

// cpu is the process CPU time the timed phases have used so far.
func (a *rtAccount) cpu() float64 {
	if a == nil {
		return 0
	}
	return a.delta.procCPU
}

// liveHeap forces a collection and returns the live heap in bytes. Call
// it only outside timed windows.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
