package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"dewrite/internal/stats"
	"dewrite/internal/units"
)

// observe records a host duration in l.
func observe(l *stats.Latency, d time.Duration) {
	l.Observe(units.Duration(d.Nanoseconds()) * units.Nanosecond)
}

// micros converts a recorded duration to microseconds.
func micros(d units.Duration) float64 { return float64(d) / float64(units.Microsecond) }

// quantile returns the q-quantile of vs, interpolating linearly between
// the nearest ranks; 0 when empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// windows collects host-time samples: one per window of requests after a
// sim repetition has settled, one per second of serve-kv's load.
//
// On a VM with a few vCPUs of a shared host, the host deschedules the vCPUs
// for a third or more of the wall time, by an amount that changes over
// seconds, so wall-clock throughput spreads by a quarter or more between
// runs of the same code. The CPU time the guest accounts to the program
// excludes the time it was descheduled. Over five seeds of sim-unique on a
// 2-vCPU Xeon VM, the median over windows of CPU time per request spread by
// 2 % (IQR/median) while the median wall throughput spread by 17 %. So the
// end-to-end host cost is the median CPU time per request, and wall
// throughput is a per-layer metric.
type windows struct {
	rate, cpu, p50, p99 []float64
	samples             uint64
}

// add records one window: n requests in wall time el using CPU time cpu
// (0 when unmeasured).
func (w *windows) add(n int64, el, cpu time.Duration) {
	w.rate = append(w.rate, float64(n)/el.Seconds())
	if cpu > 0 {
		w.cpu = append(w.cpu, cpu.Seconds()*1e6/float64(n))
	}
}

// addLatency records one window's latency percentiles.
func (w *windows) addLatency(lat *stats.Latency) {
	w.p50 = append(w.p50, micros(lat.P50()))
	w.p99 = append(w.p99, micros(lat.P99()))
	w.samples += lat.Count()
}

func (w *windows) merge(o *windows) {
	w.rate = append(w.rate, o.rate...)
	w.cpu = append(w.cpu, o.cpu...)
	w.p50 = append(w.p50, o.p50...)
	w.p99 = append(w.p99, o.p99...)
	w.samples += o.samples
}

// report sets cpu_us_per_req, the median over the windows.
func (w *windows) report(o *outcome) {
	o.Metrics["cpu_us_per_req"] = median(w.cpu)
	o.Samples["windows"] = int64(len(w.cpu))
	fmt.Printf("windows cpu_us_per_req min %.6g median %.6g max %.6g; req_per_s min %.6g median %.6g max %.6g\n",
		quantile(w.cpu, 0), median(w.cpu), quantile(w.cpu, 1),
		quantile(w.rate, 0), median(w.rate), quantile(w.rate, 1))
}

// worseDecile is the quantile the latency percentiles report over their
// windows: a run's latency follows the host's descheduling, and the upper
// decile stays in the contended regime.
const worseDecile = 0.9

// reportLatency sets latency.p50_us and latency.p99_us.
func (w *windows) reportLatency(o *outcome) {
	o.Metrics["latency.p50_us"] = quantile(w.p50, worseDecile)
	o.Metrics["latency.p99_us"] = quantile(w.p99, worseDecile)
	o.Samples["latency"] = int64(w.samples)
}

// cpuTime returns this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the slice of runtime.MemStats the benchmark reports on.
type memSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// liveHeapMB forces a collection and returns the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// digest is the short hex SHA-256 used for determinism digests.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeLoop calls fn(i) for i = 0, 1, … over rounds of n calls until at
// least minDur has passed, and returns the mean ns per call.
func timeLoop(n int, minDur time.Duration, fn func(i int)) float64 {
	calls := 0
	start := time.Now()
	for {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
		if el := time.Since(start); el >= minDur {
			return float64(el.Nanoseconds()) / float64(calls)
		}
	}
}
