package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// epoch anchors nanotime: time.Since reads the monotonic clock through the
// vDSO, which keeps a timed boundary at a few tens of nanoseconds.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// busy accumulates the wall time spent inside one wrapped boundary and the
// number of calls that crossed it. It is safe for concurrent use.
type busy struct {
	ns atomic.Int64
	n  atomic.Int64
}

func (b *busy) add(d int64) {
	b.ns.Add(d)
	b.n.Add(1)
}

// perCallUS is the mean busy time per call in microseconds (0 with no calls).
func (b *busy) perCallUS() float64 {
	n := b.n.Load()
	if n == 0 {
		return 0
	}
	return float64(b.ns.Load()) / float64(n) / 1e3
}

// span is one traced boundary crossing. Spans of one operation share the
// root span's ID as their ancestor; Parent is 0 for a root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps sampled spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
	ids   atomic.Uint64
}

func (l *spanLog) newID() uint64 { return l.ids.Add(1) }

func (l *spanLog) record(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans stores a traced run's spans beside its scratch directory,
// as <workload>-spans.jsonl.
func writeSpans(rc runConfig, l *spanLog) error {
	path := filepath.Join(filepath.Dir(rc.work), rc.name+"-spans.jsonl")
	if err := l.write(path); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s\n", len(l.spans), path)
	return nil
}

// sampled reports whether call k of a boundary carries full spans: a
// seeded one-in-1024 choice, so a run keeps a few hundred to a few
// thousand spans rather than one per call.
func sampled(k, seed uint64) bool {
	return splitmix64(k^seed)&1023 == 0
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rtNames are the runtime/metrics samples every ledger reads.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

// rtSnap is a cumulative snapshot of the process's runtime counters and
// its CPU time as the kernel accounts it.
type rtSnap struct {
	cpu    float64 // user+system seconds (getrusage)
	gcCPU  float64 // all GC work, mark assists included
	assist float64 // GC mark assists: run by allocating goroutines
	allocB uint64
	pauses *metrics.Float64Histogram
	sched  *metrics.Float64Histogram
}

func takeRT() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return rtSnap{
		cpu:    processCPU(),
		gcCPU:  samples[0].Value.Float64(),
		assist: samples[1].Value.Float64(),
		allocB: samples[2].Value.Uint64(),
		pauses: samples[3].Value.Float64Histogram(),
		sched:  samples[4].Value.Float64Histogram(),
	}
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// threadCPU is the calling thread's CPU time in nanoseconds; the caller
// keeps its goroutine on the thread with runtime.LockOSThread.
func threadCPU() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// rtDelta accumulates runtime counters over one or more measured
// intervals, so a ledger can cover only the timed parts of a run.
type rtDelta struct {
	cpu, gcCPU    float64
	assist        float64
	allocB        uint64
	pauses, sched []uint64
	pauseB, schB  []float64
}

func (d *rtDelta) add(a, b rtSnap) {
	d.cpu += b.cpu - a.cpu
	d.gcCPU += b.gcCPU - a.gcCPU
	d.assist += b.assist - a.assist
	d.allocB += b.allocB - a.allocB
	d.pauses, d.pauseB = addHist(d.pauses, a.pauses, b.pauses), b.pauses.Buckets
	d.sched, d.schB = addHist(d.sched, a.sched, b.sched), b.sched.Buckets
}

func addHist(acc []uint64, a, b *metrics.Float64Histogram) []uint64 {
	if acc == nil {
		acc = make([]uint64, len(b.Counts))
	}
	for i := range b.Counts {
		acc[i] += b.Counts[i] - a.Counts[i]
	}
	return acc
}

// histQuantile returns the upper edge of the bucket holding quantile q
// (its lower edge for the unbounded last bucket); 0 for an empty histogram.
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if hi := bounds[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

// layers returns the runtime ledger rows: GC's share of process CPU, the
// 99th-percentile GC stop-the-world pause and goroutine scheduling
// latency, and bytes allocated per operation.
func (d *rtDelta) layers(ops float64) map[string]float64 {
	out := map[string]float64{}
	if d.cpu > 0 {
		out["gc.cpu_frac"] = d.gcCPU / d.cpu
	}
	out["gc.pause_p99_us"] = histQuantile(d.pauses, d.pauseB, 0.99) * 1e6
	out["sched.latency_p99_us"] = histQuantile(d.sched, d.schB, 0.99) * 1e6
	if ops > 0 {
		out["alloc_bytes_per_op"] = float64(d.allocB) / ops
	}
	return out
}

// heapWatch tracks the peak live heap — the bytes the GC found reachable
// at the end of each cycle — by polling runtime/metrics. Unlike sampled
// heap-in-use, it does not depend on where a sample falls in the GC cycle.
type heapWatch struct {
	stop chan struct{}
	done chan uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		var peak uint64
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-t.C:
			case <-w.stop:
				w.done <- peak
				return
			}
		}
	}()
	return w
}

// peakMiB stops the watch and returns the peak live heap in MiB.
func (w *heapWatch) peakMiB() float64 {
	close(w.stop)
	return float64(<-w.done) / (1 << 20)
}

// median returns the middle value (mean of the two middles); 0 when empty.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (xs unchanged).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
