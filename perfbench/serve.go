package main

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

const (
	// serveSerials is the serving tier's working set: a few thousand
	// serials, inside the GET fast path's 8192-entry memo.
	serveSerials = 4000
	// serveBatch is one timed unit of in-process serving.
	serveBatch = 1 << 18
	// serveSubmitters drive the handler concurrently. One: on two shared
	// vCPUs, a second submitter doubled the run-to-run spread of the
	// wall-clock rate (20% against 10% over five runs).
	serveSubmitters = 1
)

// serveSerialList derives the serving population from the seed: distinct
// serials, about 3% of them revoked.
func serveSerialList(seed int64, n int) (serials []*big.Int, revoked []bool) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	for len(serials) < n {
		v := 1_000_000 + rng.Int63n(1<<40)
		if seen[v] {
			continue
		}
		seen[v] = true
		serials = append(serials, big.NewInt(v))
		revoked = append(revoked, rng.Float64() < 0.03)
	}
	return serials, revoked
}

// tier is the serving tier wired like ocspload -selfserve: a seeded CA
// and database, a window-cached responder, and an ocspserver handler.
type tier struct {
	ca *pki.CA
	r  *responder.Responder
	h  *ocspserver.Handler
}

func buildTier(seed int64, n int) (*tier, error) {
	now := time.Now()
	ca, err := pki.NewRootCA(pki.Config{
		Name:      "perfbench CA",
		OCSPURL:   "http://perfbench.invalid",
		NotBefore: now.Add(-time.Hour),
		Rand:      rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, err
	}
	db := responder.NewDB()
	serials, revoked := serveSerialList(seed, n)
	for i, s := range serials {
		db.AddIssued(s, now.AddDate(1, 0, 0))
		if revoked[i] {
			db.Revoke(s, now.AddDate(0, -1, 0), pkixutil.ReasonKeyCompromise)
		}
	}
	profile := responder.NewProfile(responder.WithValidity(24 * time.Hour))
	profile.Apply(responder.WithCachedResponses(0))
	r := responder.New("perfbench.invalid", ca, db, clock.Real{}, profile)
	return &tier{ca: ca, r: r, h: ocspserver.NewHandler(r)}, nil
}

// serveTargets pre-builds every serial's requests: marshaling happens
// before timing, so the load measures the server.
func serveTargets(seed int64, issuer *x509.Certificate) ([]serveTarget, error) {
	serials, revoked := serveSerialList(seed, serveSerials)
	targets := make([]serveTarget, len(serials))
	for i, s := range serials {
		der, err := requestDER(s, issuer)
		if err != nil {
			return nil, err
		}
		id, err := ocsp.NewCertIDForSerial(s, issuer, crypto.SHA1)
		if err != nil {
			return nil, err
		}
		targets[i] = serveTarget{idx: i, revoked: revoked[i], post: der, getPath: ocsp.EncodeGETPath(der), certID: id}
	}
	return targets, nil
}

func requestDER(serial *big.Int, issuer *x509.Certificate) ([]byte, error) {
	req, err := ocsp.NewRequestForSerial(serial, issuer, crypto.SHA1)
	if err != nil {
		return nil, err
	}
	return req.Marshal()
}

// serveTarget is one serial's pre-built requests: marshaling happens
// before timing, so the generator measures the server.
type serveTarget struct {
	idx     int
	revoked bool
	post    []byte
	getPath string // RFC 5019 base64 path, without the leading slash
	certID  ocsp.CertID
}

// bodyCheck verifies response bodies. Each distinct body is parsed,
// matched to the requested CertID and status, and signature-checked once;
// afterwards only its hash is looked up. Within one update window every
// body for a serial — by GET or by POST — must be the same bytes.
type bodyCheck struct {
	issuer *x509.Certificate
	mu     sync.Mutex
	bodies map[uint64]int           // body hash → serial index
	window map[int]map[int64]uint64 // serial → thisUpdate → body hash
}

func (c *bodyCheck) check(t *serveTarget, body []byte) error {
	h := fnv64(body)
	c.mu.Lock()
	idx, known := c.bodies[h]
	c.mu.Unlock()
	if known {
		if idx != t.idx {
			return fmt.Errorf("body answers serial #%d, asked #%d", idx, t.idx)
		}
		return nil
	}
	resp, err := ocsp.ParseResponse(body)
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	single := resp.Find(t.certID)
	if single == nil {
		return errors.New("response does not cover the requested CertID")
	}
	want := ocsp.Good
	if t.revoked {
		want = ocsp.Revoked
	}
	if single.Status != want {
		return fmt.Errorf("status %v, want %v", single.Status, want)
	}
	if err := resp.CheckSignatureFrom(c.issuer); err != nil {
		return fmt.Errorf("signature: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bodies[h] = t.idx
	wins := c.window[t.idx]
	if wins == nil {
		wins = map[int64]uint64{}
		c.window[t.idx] = wins
	}
	tu := single.ThisUpdate.UnixNano()
	if prev, ok := wins[tu]; ok && prev != h {
		return fmt.Errorf("serial #%d: two different bodies in one update window", t.idx)
	}
	wins[tu] = h
	return nil
}

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// memWriter is an in-process http.ResponseWriter that keeps the status,
// headers and body of one response at a time.
type memWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.hdr }
func (w *memWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}
func (w *memWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// inproc drives the handler the way net/http would, without the socket:
// per-submitter request objects, a seeded 50/50 GET/POST mix over the
// serial population. Every 200 body is compared byte for byte with the
// serial's verified body; a new body (an update window rolled) is parsed
// and verified before it is accepted.
type inproc struct {
	seed     uint64
	h        http.Handler
	targets  []serveTarget
	check    *bodyCheck
	expected []atomic.Pointer[[]byte]
}

// pick is request idx of the seeded sequence: a target and a method.
func pick(seed uint64, n int, idx uint64) (target int, get bool) {
	draw := splitmix64(seed ^ idx)
	return int((draw >> 1) % uint64(n)), draw&1 == 0
}

func (s *inproc) do(sub *submitter, target int, isGET bool) error {
	t := &s.targets[target]
	w, get, post, rd := &sub.w, sub.get, sub.post, sub.rd
	w.reset()
	if isGET {
		s.h.ServeHTTP(w, get[t.idx])
	} else {
		rd.Reset(t.post)
		post.ContentLength = int64(len(t.post))
		s.h.ServeHTTP(w, post)
	}
	if w.code != http.StatusOK {
		return fmt.Errorf("status %d", w.code)
	}
	body := w.body.Bytes()
	if want := s.expected[t.idx].Load(); want != nil && bytes.Equal(body, *want) {
		return nil
	}
	if err := s.check.check(t, body); err != nil {
		return err
	}
	b := bytes.Clone(body)
	s.expected[t.idx].Store(&b)
	return nil
}

// submitter holds one submitter's reusable request objects.
type submitter struct {
	w    memWriter
	get  []*http.Request
	post *http.Request
	rd   *bytes.Reader
}

func (s *inproc) newSubmitter() *submitter {
	u, _ := url.Parse("http://perfbench.invalid/")
	sub := &submitter{w: memWriter{hdr: http.Header{}}, rd: bytes.NewReader(nil)}
	sub.post = &http.Request{Method: http.MethodPost, URL: u, Header: http.Header{"Content-Type": {ocsp.ContentTypeRequest}}, Body: io.NopCloser(sub.rd)}
	for i := range s.targets {
		gu := &url.URL{Scheme: "http", Host: u.Host, Path: "/" + s.targets[i].getPath}
		sub.get = append(sub.get, &http.Request{Method: http.MethodGet, URL: gu, Header: http.Header{}})
	}
	return sub
}

type serveBatchResult struct {
	elapsed  time.Duration
	cpu      float64
	failed   int64
	heapPeak float64 // MiB
}

// batch serves serveBatch requests, split over the submitters.
func (s *inproc) batch(subs []*submitter, base uint64, errs func(error)) serveBatchResult {
	var r serveBatchResult
	var failed atomic.Int64
	runtime.GC()
	mem := watchHeap()
	cpu0 := processCPU()
	start := nanotime()
	var wg sync.WaitGroup
	for k, sub := range subs {
		wg.Add(1)
		go func(k int, sub *submitter) {
			defer wg.Done()
			for j := uint64(k); j < serveBatch; j += uint64(len(subs)) {
				t, get := pick(s.seed, len(s.targets), base+j)
				if err := s.do(sub, t, get); err != nil {
					failed.Add(1)
					errs(err)
				}
			}
		}(k, sub)
	}
	wg.Wait()
	r.elapsed = time.Duration(nanotime() - start)
	r.cpu = processCPU() - cpu0
	r.heapPeak = mem.peakMiB()
	r.failed = failed.Load()
	return r
}

// methodTimer is the traced handler: it times every request by method
// and keeps spans for a seeded sample.
type methodTimer struct {
	h         http.Handler
	seed      uint64
	calls     atomic.Uint64
	get, post busy
	spans     spanLog
}

func (m *methodTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s := nanotime()
	m.h.ServeHTTP(w, req)
	e := nanotime()
	if req.Method == http.MethodGet {
		m.get.add(e - s)
	} else {
		m.post.add(e - s)
	}
	if sampled(m.calls.Add(1), m.seed) {
		m.spans.record(span{ID: m.spans.newID(), Name: "ocspserver.Handler/" + req.Method, Start: s, End: e})
	}
}

// firstRequest POSTs one OCSP request for serial to the tier and wants 200.
func firstRequest(t *tier, serial *big.Int) error {
	der, err := requestDER(serial, t.ca.Certificate)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, "http://perfbench.invalid/", bytes.NewReader(der))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", ocsp.ContentTypeRequest)
	w := &memWriter{hdr: http.Header{}}
	t.h.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		return fmt.Errorf("first request: status %d", w.code)
	}
	return nil
}

func runServe(rc runConfig) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	var errMu sync.Mutex
	errs := func(err error) {
		errMu.Lock()
		out.fail("response check: %v", err)
		errMu.Unlock()
	}

	// Set-up — the tier built and its first request answered 200 — is
	// paid three times; its median is the figure.
	var (
		setups []float64
		t      *tier
	)
	serials, _ := serveSerialList(rc.seed, 1)
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		tt, err := buildTier(rc.seed, serveSerials)
		if err != nil {
			return nil, err
		}
		if err := firstRequest(tt, serials[0]); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		t = tt
	}
	targets, err := serveTargets(rc.seed, t.ca.Certificate)
	if err != nil {
		return nil, err
	}
	s := &inproc{
		seed: uint64(rc.seed), h: t.h, targets: targets,
		check:    &bodyCheck{issuer: t.ca.Certificate, bodies: map[uint64]int{}, window: map[int]map[int64]uint64{}},
		expected: make([]atomic.Pointer[[]byte], len(targets)),
	}

	subs := make([]*submitter, serveSubmitters)
	for k := range subs {
		subs[k] = s.newSubmitter()
	}
	// Warm-up, untimed: every serial once by GET and once by POST, so the
	// responder cache and the GET fast path hold the working set and every
	// body has been verified.
	for i := range s.targets {
		for m := uint64(0); m < 2; m++ {
			out.attempted++
			if err := s.do(subs[0], i, m == 0); err != nil {
				out.failed++
				errs(err)
			}
		}
	}

	var (
		plainRate, tracedRate, heaps, cpuPerReq []float64
		mt                                      *methodTimer
		rt                                      rtDelta
		fastH, fastM, cacheH, cacheM            uint64
	)
	if rc.trace {
		mt = &methodTimer{h: t.h, seed: uint64(rc.seed)}
	}
	secs := time.Duration(rc.seconds * float64(time.Second))
	if rc.trace {
		secs /= 2 // the other half drives the loopback ledger
	}
	deadline := time.Now().Add(secs)
	for i := 1; time.Now().Before(deadline) || len(plainRate) < 3 || (rc.trace && len(tracedRate) < 2); i++ {
		traced := rc.trace && i%2 == 0
		s.h = t.h
		var a rtSnap
		var fh0, fm0, ch0, cm0 uint64
		if traced {
			s.h = mt
			a = takeRT()
			fh0, fm0, _ = t.h.FastPathStats()
			ch0, cm0 = t.r.CacheStats()
		}
		r := s.batch(subs, uint64(i)*serveBatch, errs)
		out.attempted += serveBatch
		out.failed += r.failed
		rate := float64(serveBatch) / r.elapsed.Seconds()
		if traced {
			rt.add(a, takeRT())
			fh, fm, _ := t.h.FastPathStats()
			ch, cm := t.r.CacheStats()
			fastH, fastM, cacheH, cacheM = fastH+fh-fh0, fastM+fm-fm0, cacheH+ch-ch0, cacheM+cm-cm0
			tracedRate = append(tracedRate, rate)
			continue
		}
		plainRate = append(plainRate, rate)
		heaps = append(heaps, r.heapPeak)
		cpuPerReq = append(cpuPerReq, r.cpu/serveBatch*1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d timed batches of %d, requests/s %v\n", len(plainRate), serveBatch, plainRate)

	out.e2e["setup_s"] = median(setups)
	out.e2e["ops_per_s"] = median(plainRate)
	out.e2e["heap_peak_mib"] = median(heaps)
	out.e2e["cpu_us_per_op"] = median(cpuPerReq)
	if !rc.trace {
		return out, nil
	}

	l := out.layers
	l["ocspserver.handler_us.get"] = mt.get.perCallUS()
	l["ocspserver.handler_us.post"] = mt.post.perCallUS()
	if fastH+fastM > 0 {
		l["ocspserver.fastpath_hit_frac"] = float64(fastH) / float64(fastH+fastM)
	}
	if cacheH+cacheM > 0 {
		l["responder.cache_hit_frac"] = float64(cacheH) / float64(cacheH+cacheM)
	}
	for k, v := range rt.layers(float64(mt.get.n.Load() + mt.post.n.Load())) {
		l[k] = v
	}
	l["trace.overhead_frac"] = median(plainRate)/median(tracedRate) - 1
	if err := writeSpans(rc, &mt.spans); err != nil {
		return nil, err
	}
	if err := loopbackLedger(rc, out, secs); err != nil {
		return nil, fmt.Errorf("loopback: %w", err)
	}
	return out, nil
}
