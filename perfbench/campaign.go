package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/impact"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/store"
	"github.com/netmeasure/muststaple/internal/world"
)

// campaignSpec is one campaign workload: which targets, stride and
// aggregators it runs over a fixed slice of the world's window, wired the
// way internal/core wires the real experiment.
type campaignSpec struct {
	name    string
	slice   time.Duration
	stride  func(*world.World) time.Duration
	targets func(*world.World) []scanner.Target
	aggs    func(*world.World) []scanner.Aggregator
	stored  bool
}

// hourlySpec is the Hourly campaign with every aggregator Figures 3 and
// 5–9, hard-fail and latency need (core.ensureHourly), no store.
var hourlySpec = campaignSpec{
	name:    "campaign-hourly",
	slice:   4 * 24 * time.Hour,
	stride:  func(w *world.World) time.Duration { return w.Config.Stride },
	targets: func(w *world.World) []scanner.Target { return w.Targets },
	aggs: func(w *world.World) []scanner.Aggregator {
		return []scanner.Aggregator{
			scanner.NewAvailabilitySeries(w.Config.Stride),
			scanner.NewUnusableSeries(w.Config.Stride),
			scanner.NewQualityAggregator(),
			scanner.NewResponderAvailability(),
			impact.NewHardFail(),
			scanner.NewLatencyAggregator(),
		}
	},
}

// alexaSpec is the Figure 4 impact campaign (core.ensureAlexa): hourly
// stride, one weighted target per Alexa responder, persisted to a store.
var alexaSpec = campaignSpec{
	name:    "campaign-alexa-stored",
	slice:   3 * 24 * time.Hour,
	stride:  func(*world.World) time.Duration { return time.Hour },
	targets: func(w *world.World) []scanner.Target { return w.AlexaTargets },
	aggs: func(*world.World) []scanner.Aggregator {
		return []scanner.Aggregator{scanner.NewDomainImpact(time.Hour, 1)}
	},
	stored: true,
}

// quickConfig is cmd/repro's quick world: 12-hour stride, 3 certificates
// per responder.
func quickConfig(seed int64) world.Config {
	return world.Config{Seed: seed, Stride: 12 * time.Hour, CertsPerResponder: 3}
}

// goldenSeed is the seed whose observation digests golden.json pins.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

// repResult is one repetition of a campaign: a fresh world scanned over
// the spec's slice.
type repResult struct {
	setup    time.Duration
	elapsed  time.Duration
	expected int
	scans    int
	stats    scanner.Stats
	digest   string
	heapPeak float64 // MiB
	cpu      float64 // process CPU seconds inside the timed region
}

func runCampaign(rc runConfig, spec campaignSpec) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	var setups []float64
	rep := func(i int, digest bool, tr *campTracer) (repResult, error) {
		r, err := runCampaignRep(rc, spec, i, digest, tr)
		out.attempted += int64(r.expected)
		if err != nil {
			out.failed += int64(r.expected)
			return r, err
		}
		// Canceled lookups never reach the aggregators; anything short
		// of the expected count was lost.
		out.failed += int64(r.expected - r.scans)
		setups = append(setups, r.setup.Seconds())
		return r, nil
	}

	// The reference repetition carries the digest aggregator, which is
	// too costly to time; it also warms the process before timing.
	ref, err := rep(0, true, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d scans, digest %s\n", spec.name, rc.seed, ref.scans, ref.digest)
	if rc.seed == goldenSeed {
		if want := golden[spec.name]; ref.digest != want {
			out.fail("%s seed %d: observation digest %s, golden %s", spec.name, rc.seed, ref.digest, want)
		}
	}
	if rc.trace {
		// The traced wiring must not change a single observation.
		tr := newCampTracer(uint64(rc.seed))
		d, err := rep(1, true, tr)
		if err != nil {
			return nil, err
		}
		if d.digest != ref.digest {
			out.fail("traced digest %s differs from untraced %s", d.digest, ref.digest)
		}
	}

	var (
		plainRate, tracedRate []float64
		heaps, cpuPerScan     []float64
		tr                    *campTracer
	)
	if rc.trace {
		tr = newCampTracer(uint64(rc.seed))
	}
	deadline := time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
	for i := 2; time.Now().Before(deadline) || len(plainRate) < 3 || (rc.trace && len(tracedRate) < 2); i++ {
		// A traced run alternates untraced and traced repetitions: the
		// untraced ones price the tracing, the traced ones fill the ledger.
		var t *campTracer
		if rc.trace && i%2 == 1 {
			t = tr
		}
		r, err := rep(i, false, t)
		if err != nil {
			return nil, err
		}
		checkFingerprint(out, ref, r)
		rate := float64(r.scans) / r.elapsed.Seconds()
		if t != nil {
			tracedRate = append(tracedRate, rate)
			continue
		}
		plainRate = append(plainRate, rate)
		heaps = append(heaps, r.heapPeak)
		cpuPerScan = append(cpuPerScan, r.cpu/float64(r.scans)*1e6)
	}

	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = median(plainRate)
	out.e2e["heap_peak_mib"] = median(heaps)
	out.e2e["cpu_us_per_op"] = median(cpuPerScan)
	fmt.Fprintf(os.Stderr, "perfbench: %d timed repetitions, scans/s %v\n", len(plainRate), plainRate)
	if rc.trace {
		tr.ledger(out, median(plainRate), median(tracedRate))
		if err := writeSpans(rc, &tr.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkFingerprint compares a timed repetition against the digest-checked
// reference one: same scans, same rounds, same per-class counts.
func checkFingerprint(out *outcome, ref, r repResult) {
	if r.scans != ref.scans || r.stats.Rounds != ref.stats.Rounds || !reflect.DeepEqual(r.stats.ByClass, ref.stats.ByClass) {
		out.fail("repetition differs from reference: scans %d/%d rounds %d/%d classes %v/%v",
			r.scans, ref.scans, r.stats.Rounds, ref.stats.Rounds, r.stats.ByClass, ref.stats.ByClass)
	}
}

func runCampaignRep(rc runConfig, spec campaignSpec, i int, digest bool, tr *campTracer) (repResult, error) {
	var r repResult
	runtime.GC() // every repetition starts from the same heap

	t0 := time.Now()
	w, err := world.Build(quickConfig(rc.seed))
	if err != nil {
		return r, fmt.Errorf("world: %w", err)
	}
	r.setup = time.Since(t0)

	stride := spec.stride(w)
	targets := spec.targets(w)
	start := w.Config.Start
	end := start.Add(spec.slice)
	vantages := len(netsim.PaperVantages())
	for at := start; at.Before(end); at = at.Add(stride) {
		for _, t := range targets {
			if t.Expiry.IsZero() || !at.After(t.Expiry) {
				r.expected += vantages
			}
		}
	}

	var transport scanner.Transport = w.Network
	var rcl *roundClock
	aggs := spec.aggs(w)
	var log *scanner.ObservationLog
	if digest {
		log = scanner.NewObservationLog()
		aggs = append(aggs, log)
	}
	if tr != nil {
		rcl = &roundClock{inner: &tracedTransport{inner: w.Network, t: tr}, origin: start.UnixNano(), stride: int64(stride)}
		transport = rcl
		for _, info := range w.Responders {
			w.Network.RegisterHost(info.Host, w.Network.Backend(info.Host),
				tr.handler(ocspserver.NewHandler(info.Responder)))
		}
		for k, a := range aggs {
			if a != log {
				aggs[k] = tr.wrapAgg(a)
			}
		}
	}

	opts := []scanner.Option{
		scanner.WithTargets(targets...),
		scanner.WithWindow(start, end),
		scanner.WithStride(stride),
	}
	var st *store.Store
	if spec.stored {
		dir := filepath.Join(rc.work, fmt.Sprintf("store-%d", i))
		// The options core.ensureAlexa opens its store with: every round
		// and checkpoint is fsynced.
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return r, fmt.Errorf("store: %w", err)
		}
		defer os.RemoveAll(dir)
		var sink scanner.RoundSink = st
		if tr != nil {
			sink = &tracedSink{inner: st, b: &tr.store, cpu: &tr.storeCPU}
		}
		opts = append(opts, scanner.WithStore(sink))
	}
	camp, err := scanner.NewCampaign(&scanner.Client{Transport: transport}, w.Clock, opts...)
	if err != nil {
		return r, err
	}
	if st != nil {
		st.SetCheckpointPayload(func() []byte { return []byte(camp.Stats().String()) })
	}

	var rt0 rtSnap
	if tr != nil {
		rt0 = takeRT()
	}
	mem := watchHeap()
	cpu0 := processCPU()
	t1 := nanotime()
	n, err := camp.Run(context.Background(), aggs...)
	if st != nil {
		if tr != nil {
			ss := st.Stats()
			tr.storeBytes.Add(ss.Bytes)
			tr.storeRecords.Add(ss.Records)
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}
	t2 := nanotime()
	r.cpu = processCPU() - cpu0
	r.heapPeak = mem.peakMiB()
	if tr != nil {
		tr.rt.add(rt0, takeRT())
	}
	if err != nil {
		return r, fmt.Errorf("campaign: %w", err)
	}
	r.elapsed = time.Duration(t2 - t1)
	r.scans = n
	r.stats = camp.Stats()
	if tr != nil {
		tr.scans.Add(int64(n))
		tr.roundsMS = append(tr.roundsMS, rcl.durations(t2)...)
		h, m := w.CacheStats()
		tr.cacheHits.Add(int64(h))
		tr.cacheMisses.Add(int64(m))
	}
	if log != nil {
		sum := sha256.New()
		for _, l := range log.Lines() {
			sum.Write([]byte(l))
			sum.Write([]byte{'\n'})
		}
		r.digest = hex.EncodeToString(sum.Sum(nil))
	}
	return r, nil
}

// roundClock marks when each campaign round's first lookup reaches the
// transport. Rounds scan one at a time, so consecutive marks bound a
// round's scanning time. Retries carry backed-off virtual times between
// round instants and are ignored.
type roundClock struct {
	inner  scanner.Transport
	origin int64
	stride int64
	cur    atomic.Int64
	mu     sync.Mutex
	marks  []int64
}

func (c *roundClock) Do(v netsim.Vantage, at time.Time, req *http.Request) (*netsim.Result, error) {
	if a := at.UnixNano(); c.cur.Load() != a && (a-c.origin)%c.stride == 0 {
		c.mark(a)
	}
	return c.inner.Do(v, at, req)
}

func (c *roundClock) mark(a int64) {
	c.mu.Lock()
	if c.cur.Load() != a {
		c.cur.Store(a)
		c.marks = append(c.marks, nanotime())
	}
	c.mu.Unlock()
}

// durations returns each round's scanning time; the last round ends at end.
func (c *roundClock) durations(end int64) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, len(c.marks))
	for i, m := range c.marks {
		next := end
		if i+1 < len(c.marks) {
			next = c.marks[i+1]
		}
		out[i] = time.Duration(next - m)
	}
	return out
}

// campTracer is the campaign ledger: busy time and call counts at every
// wrapped seam, plus sampled spans.
type campTracer struct {
	seed      uint64
	calls     atomic.Uint64
	transport busy
	hit, sign busy
	static    busy
	agg       busy
	store     busy
	storeCPU  busy // thread CPU time inside the store seam
	spans     spanLog

	scans                    atomic.Int64
	cacheHits, cacheMisses   atomic.Int64
	storeBytes, storeRecords atomic.Int64
	roundsMS                 []time.Duration

	rt        rtDelta  // runtime counters inside traced campaign runs
	aggByType sync.Map // type name → *busy
}

func newCampTracer(seed uint64) *campTracer { return &campTracer{seed: seed} }

type spanKey struct{}

// tracedTransport times every exchange through netsim and keeps full
// spans for a seeded sample of scans; the sampled request carries its
// span ID to the handler through its context.
type tracedTransport struct {
	inner scanner.Transport
	t     *campTracer
}

func (tt *tracedTransport) Do(v netsim.Vantage, at time.Time, req *http.Request) (*netsim.Result, error) {
	k := tt.t.calls.Add(1)
	var id uint64
	if sampled(k, tt.t.seed) {
		id = tt.t.spans.newID()
		req = req.WithContext(context.WithValue(req.Context(), spanKey{}, id))
	}
	s := nanotime()
	res, err := tt.inner.Do(v, at, req)
	e := nanotime()
	tt.t.transport.add(e - s)
	if id != 0 {
		tt.t.spans.record(span{ID: id, Name: "netsim.Do", Start: s, End: e})
	}
	return res, err
}

// handler wraps a responder host's OCSP handler, attributing its time to
// the responder path the response header names: cache hit, sign on miss,
// or a static body.
func (t *campTracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := nanotime()
		h.ServeHTTP(w, req)
		e := nanotime()
		src := w.Header().Get(responder.SourceHeader)
		switch src {
		case "cache":
			t.hit.add(e - s)
		case "sign":
			t.sign.add(e - s)
		default:
			t.static.add(e - s)
		}
		if parent, ok := req.Context().Value(spanKey{}).(uint64); ok {
			t.spans.record(span{ID: t.spans.newID(), Parent: parent, Name: "ocspserver.handler/" + src, Start: s, End: e})
		}
	})
}

func (t *campTracer) aggBusy(a scanner.Aggregator) *busy {
	name := reflect.TypeOf(a).String()
	b, _ := t.aggByType.LoadOrStore(name, &busy{})
	return b.(*busy)
}

// wrapAgg times an aggregator's Add and Merge calls, keeping the
// ShardedAggregator contract when the wrapped aggregator offers it.
func (t *campTracer) wrapAgg(a scanner.Aggregator) scanner.Aggregator {
	ta := &tracedAgg{inner: a, t: t, b: t.aggBusy(a)}
	if sa, ok := a.(scanner.ShardedAggregator); ok {
		return &tracedShardedAgg{tracedAgg: ta, sharded: sa}
	}
	return ta
}

type tracedAgg struct {
	inner scanner.Aggregator
	t     *campTracer
	b     *busy
}

func (a *tracedAgg) Add(o scanner.Observation) {
	s := nanotime()
	a.inner.Add(o)
	d := nanotime() - s
	a.b.add(d)
	a.t.agg.add(d)
}

type tracedShardedAgg struct {
	*tracedAgg
	sharded scanner.ShardedAggregator
}

func (a *tracedShardedAgg) NewShard() scanner.Aggregator {
	return &tracedAgg{inner: a.sharded.NewShard(), t: a.t, b: a.b}
}

func (a *tracedShardedAgg) Merge(shard scanner.Aggregator) {
	s := nanotime()
	a.sharded.Merge(shard.(*tracedAgg).inner)
	d := nanotime() - s
	a.b.add(d)
	a.t.agg.add(d)
}

// tracedSink times the store's per-round appends: wall time, and the
// CPU time of the thread running them, which leaves out the fsync waits.
type tracedSink struct {
	inner scanner.RoundSink
	b     *busy
	cpu   *busy
}

func (s *tracedSink) AppendRound(at time.Time, obs []scanner.Observation) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c := threadCPU()
	t := nanotime()
	err := s.inner.AppendRound(at, obs)
	s.b.add(nanotime() - t)
	s.cpu.add(threadCPU() - c)
	return err
}

// ledger fills the campaign's per-layer metrics. Wall time inside the
// wrapped seams is charged to its layer, except the store's, whose fsyncs
// wait without burning CPU: it is charged its thread CPU time; GC is runtime/metrics' estimate
// less its mark assists, which run on the allocating goroutine and so are
// already inside whichever seam — or the residual — allocated; the
// residual is what process CPU time leaves over — client build, parse and
// verify, and the engine itself.
func (t *campTracer) ledger(out *outcome, plainRate, tracedRate float64) {
	rt := &t.rt
	scans := float64(t.scans.Load())
	if scans == 0 {
		return
	}
	handler := t.hit.ns.Load() + t.sign.ns.Load() + t.static.ns.Load()
	handlerCalls := t.hit.n.Load() + t.sign.n.Load() + t.static.n.Load()
	netsimSelf := float64(t.transport.ns.Load()-handler) / 1e9
	transport := float64(t.transport.ns.Load()) / 1e9
	agg := float64(t.agg.ns.Load()) / 1e9
	storeS := float64(t.storeCPU.ns.Load()) / 1e9
	gc := rt.gcCPU - rt.assist
	residual := rt.cpu - transport - agg - storeS - gc

	l := out.layers
	l["netsim.self_us_per_scan"] = netsimSelf / scans * 1e6
	l["ocspserver.hit_us"] = t.hit.perCallUS()
	l["responder.sign_us"] = t.sign.perCallUS()
	if handlerCalls > 0 {
		l["responder.sign_frac"] = float64(t.sign.n.Load()) / float64(handlerCalls)
	}
	if h, m := t.cacheHits.Load(), t.cacheMisses.Load(); h+m > 0 {
		l["responder.cache_hit_frac"] = float64(h) / float64(h+m)
	}
	l["scanner.agg_us_per_obs"] = agg / scans * 1e6
	var rounds []float64
	for _, d := range t.roundsMS {
		rounds = append(rounds, float64(d)/1e6)
	}
	l["scanner.round_ms.p50"] = quantile(rounds, 0.5)
	l["scanner.round_ms.p99"] = quantile(rounds, 0.99)
	l["scanner.residual_cpu_us_per_scan"] = residual / scans * 1e6
	l["store.append_us_per_round"] = t.store.perCallUS()
	l["store.wait_us_per_round"] = t.store.perCallUS() - t.storeCPU.perCallUS()
	if r := t.storeRecords.Load(); r > 0 {
		l["store.bytes_per_obs"] = float64(t.storeBytes.Load()) / float64(r)
	}
	if rt.cpu > 0 {
		l["ledger.unattributed_frac"] = residual / rt.cpu
	}
	for k, v := range rt.layers(scans) {
		l[k] = v
	}
	if tracedRate > 0 {
		l["trace.overhead_frac"] = plainRate/tracedRate - 1
	}

	// The ledger closes when the attributed layers do not exceed the CPU
	// the process actually burned; wall time inside a seam that was spent
	// descheduled would otherwise be double counted.
	if residual < -0.05*rt.cpu {
		out.fail("ledger does not close: layers %.3fs + GC %.3fs exceed process CPU %.3fs",
			transport+agg+storeS, gc, rt.cpu)
	}
	fmt.Fprintf(os.Stderr, "perfbench: ledger over %.0f scans: cpu %.3fs = netsim %.3fs + handler %.3fs (hit %d, sign %d, static %d) + agg %.3fs + store %.3fs + gc %.3fs (outside seams; assists %.3fs counted where they ran) + residual %.3fs\n",
		scans, rt.cpu, netsimSelf, float64(handler)/1e9, t.hit.n.Load(), t.sign.n.Load(), t.static.n.Load(), agg, storeS, gc, rt.assist, residual)
	var names []string
	t.aggByType.Range(func(k, _ any) bool { names = append(names, k.(string)); return true })
	sort.Strings(names)
	for _, n := range names {
		b, _ := t.aggByType.Load(n)
		fmt.Fprintf(os.Stderr, "perfbench:   aggregator %-36s %.3f us/obs\n", n, float64(b.(*busy).ns.Load())/scans/1e3)
	}
}
