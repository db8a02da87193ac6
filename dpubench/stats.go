package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks, computed exactly from the raw samples (never from a
// bucketed histogram). xs is sorted in place. It returns 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs unsorted.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler records the maximum of the /gc/heap/live:bytes runtime
// metric (heap reachable at the last GC) until stopped.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.max {
				h.max = v
			}
			select {
			case <-h.done:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the maximum live heap in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.max
}

// runtimeCounters is a snapshot of the cumulative runtime metrics behind
// runtime.gc_cpu_frac and runtime.alloc_kb_per_req.
type runtimeCounters struct {
	gcCPU, totalCPU float64 // cpu-seconds
	allocBytes      uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// since reports the GC share of CPU time and the bytes allocated between
// r0 and now. The cpu-seconds classes are updated at GC boundaries, so
// the fraction is exact only over spans that contain several cycles.
func (r0 runtimeCounters) since() (gcFrac float64, allocBytes uint64) {
	r1 := readRuntime()
	if cpu := r1.totalCPU - r0.totalCPU; cpu > 0 {
		gcFrac = (r1.gcCPU - r0.gcCPU) / cpu
	}
	return gcFrac, r1.allocBytes - r0.allocBytes
}
