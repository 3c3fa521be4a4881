package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/core"
	"github.com/netmeasure/muststaple/internal/expectstaple"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/store"
)

// ingestRetries bounds how often a submitter re-sends a report the
// collector shed with 503; a report still shed after that is dropped.
// A submitter that has dropped this many reports stops retrying, so a
// collector that only sheds cannot stall the run.
const ingestRetries = 64

// reportStream is the report traffic the repository's own Expect-Staple
// experiment produces: core's seven sites and simulated user-agent fleet
// (repro -exp expectstaple) on the seed's quick world, read back from
// the report log the experiment persisted, in arrival order. Its shape —
// six reporting hosts, so at most six of the collector's 64 shards busy,
// and the fleet's violation-class and Enforce mix — is the one the
// collector sees in the experiment.
type reportStream struct {
	arena []byte
	ends  []uint32          // payload j is arena[ends[j-1]:ends[j]]
	hosts map[string]uint64 // reports per host
	sum   uint64            // order-free hash sum of the payloads
}

func (s *reportStream) len() int { return len(s.ends) }

func (s *reportStream) payload(j int) []byte {
	var start uint32
	if j > 0 {
		start = s.ends[j-1]
	}
	return s.arena[start:s.ends[j]:s.ends[j]]
}

// newReportStream runs core's Expect-Staple experiment with its store
// under the run's scratch directory and loads the persisted reports.
func newReportStream(rc runConfig) (*reportStream, error) {
	dir := filepath.Join(rc.work, "fleet")
	defer os.RemoveAll(dir)
	r := &core.Runner{Config: quickConfig(rc.seed), Out: io.Discard, StoreDir: dir}
	if err := r.Run(context.Background(), "expectstaple"); err != nil {
		return nil, fmt.Errorf("expectstaple experiment: %w", err)
	}
	s := &reportStream{hosts: map[string]uint64{}}
	err := store.ScanReportLog(filepath.Join(dir, "expectstaple"), func(p []byte) error {
		rep, err := expectstaple.DecodeReport(p)
		if err != nil {
			return err
		}
		s.hosts[rep.Host]++
		s.sum += fnv64(p)
		s.arena = append(s.arena, p...)
		s.ends = append(s.ends, uint32(len(s.arena)))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiment report log: %w", err)
	}
	if s.len() == 0 {
		return nil, fmt.Errorf("expectstaple experiment persisted no reports")
	}
	s.arena = slices.Clip(s.arena)
	fmt.Fprintf(os.Stderr, "perfbench: report stream of %d reports (%d bytes) over %d hosts\n", s.len(), len(s.arena), len(s.hosts))
	return s, nil
}

// lhist is a log-linear latency histogram (32 sub-buckets per octave)
// whose quantiles interpolate within a bucket.
type lhist struct {
	counts [64 * 32]uint64
	n      uint64
}

func (h *lhist) add(ns int64) {
	u := uint64(max(ns, 1))
	e := bits.Len64(u) - 1
	var sub uint64
	if e >= 5 {
		sub = (u >> (e - 5)) & 31
	} else {
		sub = (u << (5 - e)) & 31
	}
	h.counts[e*32+int(sub)]++
	h.n++
}

func (h *lhist) merge(o *lhist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMS returns the q-quantile in milliseconds.
func (h *lhist) quantileMS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			e, sub := i/32, float64(i%32)
			lo := math.Ldexp(1+sub/32, e)
			hi := math.Ldexp(1+(sub+1)/32, e)
			return (lo + (hi-lo)*(rank-cum)/float64(c)) / 1e6
		}
		cum += float64(c)
	}
	return 0
}

// discardWriter is the in-process response: it keeps only the status.
type discardWriter struct {
	code int
	hdr  http.Header
}

func (w *discardWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}
func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// tracedReportSink times the collector's appends to the report log.
type tracedReportSink struct {
	inner expectstaple.Sink
	b     *busy
}

func (s *tracedReportSink) Append(p []byte) error {
	t := nanotime()
	err := s.inner.Append(p)
	s.b.add(nanotime() - t)
	return err
}

// ingestTracer is the ingest ledger.
type ingestTracer struct {
	seed        uint64
	calls       atomic.Uint64
	spans       spanLog
	serve, sink busy
	drains      []float64
	rt          rtDelta
}

type batchResult struct {
	setup, elapsed              time.Duration
	accepted, dropped, rejected int64
	shed                        int64 // 503 answers that were retried
	lat                         lhist
	heapPeak                    float64 // MiB
	cpu                         float64 // process CPU seconds inside the timed region
}

// runIngestBatch replays the whole stream into a fresh collector and
// report log.
func runIngestBatch(rc runConfig, i int, stream *reportStream, verifyLog bool, tr *ingestTracer) (*batchResult, []string, error) {
	var problems []string
	res := &batchResult{}
	runtime.GC()
	dir := filepath.Join(rc.work, fmt.Sprintf("reports-%d", i))
	defer os.RemoveAll(dir)

	t0 := time.Now()
	log, err := store.CreateReportLog(dir)
	if err != nil {
		return nil, nil, err
	}
	var sink expectstaple.Sink = log
	if tr != nil {
		sink = &tracedReportSink{inner: log, b: &tr.sink}
	}
	col := expectstaple.NewCollector(expectstaple.WithSink(sink), expectstaple.WithCollectorMetrics(metrics.NewRegistry()))
	res.setup = time.Since(t0)

	u, _ := url.Parse("http://reports.example.test/expect-staple")
	hdr := http.Header{"Content-Type": {expectstaple.ContentTypeReport}}
	workers := runtime.NumCPU()
	type tally struct {
		accepted, dropped, rejected, shed int64
		lat                               lhist
	}
	tallies := make([]tally, workers)

	var rt0 rtSnap
	if tr != nil {
		rt0 = takeRT()
	}
	mem := watchHeap()
	cpu0 := processCPU()
	start := nanotime()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := &tallies[w]
			rd := bytes.NewReader(nil)
			req := &http.Request{Method: http.MethodPost, URL: u, Header: hdr, Body: io.NopCloser(rd)}
			var rw discardWriter
			post := func(p []byte) int {
				rd.Reset(p)
				req.ContentLength = int64(len(p))
				rw.code, rw.hdr = 0, nil
				if tr == nil {
					col.ServeHTTP(&rw, req)
					return rw.code
				}
				s := nanotime()
				col.ServeHTTP(&rw, req)
				d := nanotime() - s
				t.lat.add(d)
				tr.serve.add(d)
				if sampled(tr.calls.Add(1), tr.seed) {
					tr.spans.record(span{ID: tr.spans.newID(), Name: "expectstaple.Collector", Start: s, End: s + d})
				}
				return rw.code
			}
			for j := w; j < stream.len(); j += workers {
				p := stream.payload(j)
				code := post(p)
				for k := 0; code == http.StatusServiceUnavailable && k < ingestRetries && t.dropped < ingestRetries; k++ {
					// Back off so the shard's worker can drain: yield
					// first, then sleep a little longer each time.
					t.shed++
					if k < 4 {
						runtime.Gosched()
					} else {
						time.Sleep(time.Duration(k) * 10 * time.Microsecond)
					}
					code = post(p)
				}
				switch code {
				case http.StatusAccepted:
					t.accepted++
				case http.StatusServiceUnavailable:
					t.dropped++
				default:
					t.rejected++
				}
			}
		}(w)
	}
	wg.Wait()
	// Timing runs through the drain: reports still queued for
	// aggregation and the log's tail are part of ingesting them.
	c0 := nanotime()
	col.Close()
	drain := nanotime() - c0
	cerr := log.Close()
	end := nanotime()
	res.cpu = processCPU() - cpu0
	res.heapPeak = mem.peakMiB()
	if tr != nil {
		tr.rt.add(rt0, takeRT())
		tr.drains = append(tr.drains, float64(drain)/1e6)
	}
	if cerr != nil {
		return nil, nil, fmt.Errorf("report log: %w", cerr)
	}
	res.elapsed = time.Duration(end - start)
	for w := range tallies {
		res.accepted += tallies[w].accepted
		res.dropped += tallies[w].dropped
		res.rejected += tallies[w].rejected
		res.shed += tallies[w].shed
		res.lat.merge(&tallies[w].lat)
	}

	// Output checks, outside the timed region.
	var total uint64
	got := map[string]uint64{}
	for _, hs := range col.Snapshot() {
		total += hs.Total
		got[hs.Host] = hs.Total
	}
	if int64(total) != res.accepted || col.Accepted() != res.accepted || log.Records() != res.accepted {
		problems = append(problems, fmt.Sprintf("batch %d: snapshot %d, accepted %d/%d, persisted %d", i, total, res.accepted, col.Accepted(), log.Records()))
	}
	if sent := int64(stream.len()); res.accepted+res.dropped+res.rejected != sent {
		problems = append(problems, fmt.Sprintf("batch %d: %d accepted + %d dropped + %d rejected != %d sent", i, res.accepted, res.dropped, res.rejected, sent))
	}
	if res.dropped == 0 && res.rejected == 0 {
		for h, n := range stream.hosts {
			if got[h] != n {
				problems = append(problems, fmt.Sprintf("batch %d: host %s aggregated %d reports, sent %d", i, h, got[h], n))
				break
			}
		}
	}
	if verifyLog {
		// The persisted log holds exactly the accepted payloads: compare
		// order-free sums of their hashes.
		var have uint64
		err := store.ScanReportLog(dir, func(p []byte) error {
			have += fnv64(p)
			return nil
		})
		if err != nil || (res.dropped == 0 && stream.sum != have) {
			problems = append(problems, fmt.Sprintf("batch %d: persisted payloads differ from the sent ones (%v)", i, err))
		}
	}
	return res, problems, nil
}

func runIngest(rc runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	stream, err := newReportStream(rc)
	if err != nil {
		return nil, err
	}
	var (
		setups, plainRate, tracedRate, heaps []float64
		cpuPerReport                         []float64
		lat                                  lhist
		shed                                 int64
		tr                                   *ingestTracer
	)
	if rc.trace {
		tr = &ingestTracer{seed: uint64(rc.seed)}
	}
	batch := func(i int, t *ingestTracer) (*batchResult, error) {
		r, problems, err := runIngestBatch(rc, i, stream, i == 0, t)
		if err != nil {
			return nil, err
		}
		for _, p := range problems {
			out.fail("%s", p)
		}
		out.attempted += int64(stream.len())
		out.failed += r.dropped + r.rejected
		shed += r.shed
		setups = append(setups, r.setup.Seconds())
		return r, nil
	}
	// The first batch warms the process and checks the persisted log.
	if _, err := batch(0, nil); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for i := 1; time.Now().Before(deadline) || len(plainRate) < 3 || (rc.trace && len(tracedRate) < 2); i++ {
		var t *ingestTracer
		if rc.trace && i%2 == 0 {
			t = tr
		}
		r, err := batch(i, t)
		if err != nil {
			return nil, err
		}
		rate := float64(r.accepted) / r.elapsed.Seconds()
		if t != nil {
			tracedRate = append(tracedRate, rate)
			lat.merge(&r.lat)
			continue
		}
		plainRate = append(plainRate, rate)
		heaps = append(heaps, r.heapPeak)
		cpuPerReport = append(cpuPerReport, r.cpu/float64(stream.len())*1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d timed batches of %d, reports/s %v\n", len(plainRate), stream.len(), plainRate)

	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = median(plainRate)
	out.e2e["heap_peak_mib"] = median(heaps)
	out.e2e["cpu_us_per_op"] = median(cpuPerReport)
	if tr != nil {
		l := out.layers
		l["expectstaple.report_p50_us"] = lat.quantileMS(0.5) * 1e3
		l["expectstaple.report_p99_us"] = lat.quantileMS(0.99) * 1e3
		l["expectstaple.serve_us_per_report"] = tr.serve.perCallUS()
		l["store.reportlog_append_us"] = tr.sink.perCallUS()
		l["expectstaple.drain_ms"] = median(tr.drains)
		l["expectstaple.dropped_frac"] = float64(shed) / float64(out.attempted)
		for k, v := range tr.rt.layers(float64(tr.serve.n.Load())) {
			l[k] = v
		}
		l["trace.overhead_frac"] = median(plainRate)/median(tracedRate) - 1
		if err := writeSpans(rc, &tr.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}
