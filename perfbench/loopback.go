package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
)

// The loopback ledger: in a traced run, serve-mixed also drives the tier
// in a process of its own, over loopback and net/http, with an open-loop
// generator. Its latencies and capacity swing with the host's scheduling
// of two shared vCPUs far more than the end-to-end bounds allow, so they
// are per-layer figures (see NOTES.md).

const (
	// serveLowRate and serveHighRate are the two fixed offered rates
	// (requests/s).
	serveLowRate  = 1000
	serveHighRate = 3000
	// serveSLO is the capacity search's p99 objective (make capacitycheck).
	serveSLO = 25 * time.Millisecond
	// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
	prSetTimerSlack = 29
	// serveWindow splits a fixed-rate phase into windows; the reported
	// p99 is the median of the windows' p99s, so one host stall moves one
	// window rather than the figure.
	serveWindow = 2 * time.Second
)

// serveMain is the serving-tier process: the tier on an ephemeral
// loopback port, behind net/http, pinned to one CPU when cpu >= 0. It
// prints "ready ADDR CA-DER" and serves until its standard input closes.
// A middleware times every OCSP request; /perfbench/phase?op=begin starts
// a phase and op=end returns the phase's median handler time.
func serveMain(seed int64, cpu int) error {
	if cpu >= 0 {
		pinProcess(cpu)
	}
	t, err := buildTier(seed, serveSerials)
	if err != nil {
		return err
	}
	ph := &phaseTimer{}
	srv := ocspserver.NewServer(t.h, ocspserver.WithRoute("/perfbench/phase", ph))
	// The same settings ocspserver.NewServer uses, so that the middleware
	// can sit in front of the whole server.
	hs := &http.Server{
		Handler:      ph.middleware(srv),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  120 * time.Second,
	}
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	hs.Protocols = protocols

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Printf("ready %s %s\n", ln.Addr(), base64.StdEncoding.EncodeToString(t.ca.Certificate.Raw))

	// The parent holds our standard input; EOF means stop.
	_, _ = io.Copy(io.Discard, os.Stdin)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err = hs.Shutdown(ctx)
	if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return err
}

// phaseTimer is the server side of the loopback ledger.
type phaseTimer struct {
	mu  sync.Mutex
	lat []float64 // handler microseconds this phase
}

func (p *phaseTimer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasPrefix(req.URL.Path, "/perfbench/") {
			next.ServeHTTP(w, req)
			return
		}
		s := nanotime()
		next.ServeHTTP(w, req)
		us := float64(nanotime()-s) / 1e3
		p.mu.Lock()
		p.lat = append(p.lat, us)
		p.mu.Unlock()
	})
}

func (p *phaseTimer) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if req.URL.Query().Get("op") == "begin" {
		p.lat = p.lat[:0]
		return
	}
	fmt.Fprintf(w, "%g\n", median(p.lat))
}

// serverProc is a running serving-tier process.
type serverProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	url    string
	issuer *x509.Certificate
}

// spawnServer starts the serving process and returns once it has answered
// its first OCSP request with 200; the elapsed time is the set-up cost.
func spawnServer(seed int64, cpu int) (*serverProc, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	cmd := exec.Command(exe, "-serve", "-seed", strconv.FormatInt(seed, 10), "-cpu", strconv.Itoa(cpu))
	// The server gets one core of its own: its latency stops sharing a
	// scheduler and a CPU with the generator.
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	f := strings.Fields(line)
	if err != nil || len(f) != 3 || f[0] != "ready" {
		p.stop()
		return nil, 0, fmt.Errorf("server did not start (%q): %v", line, err)
	}
	der, err := base64.StdEncoding.DecodeString(f[2])
	if err == nil {
		p.issuer, err = x509.ParseCertificate(der)
	}
	if err != nil {
		p.stop()
		return nil, 0, fmt.Errorf("server CA: %w", err)
	}
	p.url = "http://" + f[1]
	serials, _ := serveSerialList(seed, 1)
	probe, err := requestDER(serials[0], p.issuer)
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(p.url, ocsp.ContentTypeRequest, bytes.NewReader(probe))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, fmt.Errorf("server never answered 200: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	return p, time.Since(start), nil
}

// stop closes the server's standard input and waits for it to exit,
// killing it if it does not within a few seconds.
func (p *serverProc) stop() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // exit status is irrelevant once we are done with it
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// phase calls /perfbench/phase: op "begin" starts a phase, "end" returns
// its median server handler time in microseconds.
func (p *serverProc) phase(op string) (float64, error) {
	resp, err := http.Get(p.url + "/perfbench/phase?op=" + op)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || op == "begin" {
		return 0, err
	}
	return strconv.ParseFloat(strings.TrimSpace(string(body)), 64)
}

// phaseStats collects one load phase's outcomes.
type phaseStats struct {
	wg        sync.WaitGroup
	mu        sync.Mutex
	due, lat  []int64 // per completed request: due time and latency (ns)
	late      []int64 // generator lateness per scheduled request (ns)
	scheduled int64
	failed    int64
	backlog   int // queued, unsent requests when scheduling ended
}

func (ph *phaseStats) record(due, lat int64, ok bool) {
	ph.mu.Lock()
	if ok {
		ph.due = append(ph.due, due)
		ph.lat = append(ph.lat, lat)
	} else {
		ph.failed++
	}
	ph.mu.Unlock()
}

// quantileMS is the q-quantile of the phase's latencies in ms.
func (ph *phaseStats) quantileMS(q float64) float64 {
	xs := make([]float64, len(ph.lat))
	for i, l := range ph.lat {
		xs[i] = float64(l) / 1e6
	}
	return quantile(xs, q)
}

// windowedP99MS is the median over fixed windows (by due time) of each
// window's 99th-percentile latency.
func (ph *phaseStats) windowedP99MS(start int64) float64 {
	byWin := map[int64][]float64{}
	for i, d := range ph.due {
		w := (d - start) / int64(serveWindow)
		byWin[w] = append(byWin[w], float64(ph.lat[i])/1e6)
	}
	var p99s []float64
	for _, xs := range byWin {
		p99s = append(p99s, quantile(xs, 0.99))
	}
	return median(p99s)
}

type genJob struct {
	target int
	get    bool
	due    int64
	ph     *phaseStats
}

// generator is the open-loop load source: one scheduler and one
// connection per worker, at most nproc of them.
type generator struct {
	seed    uint64
	targets []serveTarget
	getURLs []string
	check   *bodyCheck
	jobs    chan genJob
	wg      sync.WaitGroup
	next    uint64
	errs    chan error
}

func newGenerator(seed int64, url string, issuer *x509.Certificate) (*generator, error) {
	g := &generator{
		seed:  uint64(seed),
		check: &bodyCheck{issuer: issuer, bodies: map[uint64]int{}, window: map[int]map[int64]uint64{}},
		// Deep enough that the scheduler never blocks at any probed
		// rate: the loop stays open and queueing shows as latency.
		jobs: make(chan genJob, 1<<20),
		errs: make(chan error, 16),
	}
	targets, err := serveTargets(seed, issuer)
	if err != nil {
		return nil, err
	}
	g.targets = targets
	for _, t := range targets {
		g.getURLs = append(g.getURLs, url+"/"+t.getPath)
	}
	workers := runtime.NumCPU()
	for w := 0; w < workers; w++ {
		client := &http.Client{
			Timeout: 5 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
		g.wg.Add(1)
		go g.worker(client, url)
	}
	return g, nil
}

// send queues the next request of the seeded sequence.
func (g *generator) send(due int64, ph *phaseStats) {
	t, get := pick(g.seed, len(g.targets), g.next)
	g.next++
	g.jobs <- genJob{target: t, get: get, due: due, ph: ph}
}

func (g *generator) close() {
	close(g.jobs)
	g.wg.Wait()
}

func (g *generator) worker(client *http.Client, url string) {
	defer g.wg.Done()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	for j := range g.jobs {
		t := &g.targets[j.target]
		var (
			resp *http.Response
			err  error
		)
		if j.get {
			resp, err = client.Get(g.getURLs[j.target])
		} else {
			resp, err = client.Post(url, ocsp.ContentTypeRequest, bytes.NewReader(t.post))
		}
		ok := false
		if err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			ok = err == nil && resp.StatusCode == http.StatusOK
		}
		end := nanotime()
		if ok {
			if cerr := g.check.check(t, buf.Bytes()); cerr != nil {
				ok = false
				select {
				case g.errs <- cerr:
				default:
				}
			}
		}
		j.ph.record(j.due, end-j.due, ok)
		j.ph.wg.Done()
	}
}

// drive offers rate requests/s for dur and waits for them to finish. A
// positive abortBacklog stops scheduling early once that many requests
// are queued unsent (a probe that has clearly failed).
func (g *generator) drive(rate int, dur time.Duration, abortBacklog int) *phaseStats {
	ph := &phaseStats{}
	total := int64(float64(rate) * dur.Seconds())
	interval := int64(time.Second) / int64(rate)
	// The runtime's timers wake an idle process with millisecond
	// granularity, which would put the generator's own lateness into every
	// latency. The scheduler instead sleeps in the kernel on a thread of
	// its own, with timer slack cut to a nanosecond.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0) // best effort: default slack only costs precision
	start := nanotime() + int64(time.Millisecond)
	for i := int64(0); i < total; i++ {
		due := start + i*interval
		if wait := due - nanotime(); wait > 0 {
			ts := syscall.NsecToTimespec(wait)
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep; the loop re-reads the clock
		}
		ph.late = append(ph.late, nanotime()-due)
		ph.wg.Add(1)
		ph.scheduled++
		g.send(due, ph)
		if abortBacklog > 0 && len(g.jobs) > abortBacklog {
			break
		}
	}
	ph.backlog = len(g.jobs)
	ph.wg.Wait()
	return ph
}

// warm sends every serial once by GET and once by POST, closed loop, so
// caches are filled and bodies verified before timing.
func (g *generator) warm() *phaseStats {
	ph := &phaseStats{}
	for i := range g.targets {
		for m := uint64(0); m < 2; m++ {
			ph.wg.Add(1)
			ph.scheduled++
			g.jobs <- genJob{target: i, get: m == 0, due: nanotime(), ph: ph}
		}
	}
	ph.wg.Wait()
	return ph
}

// saturate keeps every connection busy back to back for dur and returns
// the median completion rate over quarter-second slices: the closed-loop
// throughput the open-loop capacity search starts from.
func (g *generator) saturate(dur time.Duration) (float64, *phaseStats) {
	ph := &phaseStats{}
	workers := runtime.NumCPU()
	start := nanotime()
	end := start + int64(dur)
	for nanotime() < end {
		// Two queued requests per connection: none ever idles.
		for len(g.jobs) < 2*workers {
			ph.wg.Add(1)
			ph.scheduled++
			g.send(nanotime(), ph)
		}
		time.Sleep(50 * time.Microsecond)
	}
	ph.wg.Wait()
	const slice = int64(250 * time.Millisecond)
	counts := map[int64]float64{}
	for i, d := range ph.due {
		if done := d + ph.lat[i]; done < end {
			counts[(done-start)/slice]++
		}
	}
	var rates []float64
	for _, c := range counts {
		rates = append(rates, c*float64(time.Second)/float64(slice))
	}
	return median(rates), ph
}

// capacity finds the highest offered rate that meets the p99 SLO with no
// failures and a backlog under one SLO's worth of requests. It descends
// in 3% steps from 95% of the closed-loop throughput x; a failing probe is
// re-run once, so one host stall cannot decide a step. 0 means no step
// passed within the budget.
func (g *generator) capacity(x float64, probe time.Duration, budget time.Duration, onProbe func(*phaseStats)) (int, int) {
	deadline := time.Now().Add(budget)
	probes := 0
	for k := 0; k < 25 && time.Now().Before(deadline); k++ {
		rate := int(x * (0.95 - 0.03*float64(k)))
		for try := 0; try < 2; try++ {
			probes++
			ph := g.drive(rate, probe, rate/2)
			onProbe(ph)
			p99 := ph.quantileMS(0.99)
			ok := ph.failed == 0 && int64(len(ph.lat)) == ph.scheduled &&
				p99 <= float64(serveSLO)/1e6 && ph.backlog <= int(float64(rate)*serveSLO.Seconds())
			fmt.Fprintf(os.Stderr, "perfbench: probe %6d req/s p99 %8.3f ms backlog %5d %v\n", rate, p99, ph.backlog, ok)
			if ok {
				return rate, probes
			}
			time.Sleep(100 * time.Millisecond) // let the server settle
		}
	}
	return 0, probes
}

// dueStart is the earliest due time among the phase's completed requests.
func (ph *phaseStats) dueStart() int64 {
	if len(ph.due) == 0 {
		return 0
	}
	return slices.Min(ph.due)
}

// loopbackLedger is the traced run's loopback section: a traced serving
// process, an open-loop generator on the other core, two fixed rates, a
// closed-loop saturation and a capacity search.
func loopbackLedger(rc runConfig, out *outcome, secs time.Duration) error {
	// The server pins itself to the last CPU this process may use and
	// runs one P. The generator keeps two Ps, so that its scheduler
	// thread, asleep in the kernel, never holds up the senders.
	serverCore := -1
	if cpus := allowedCPUs(); len(cpus) >= 2 {
		serverCore = cpus[len(cpus)-1]
	}
	p, setup, err := spawnServer(rc.seed, serverCore)
	if err != nil {
		return err
	}
	defer p.stop()
	g, err := newGenerator(rc.seed, p.url, p.issuer)
	if err != nil {
		return err
	}
	account := func(ph *phaseStats) {
		out.attempted += ph.scheduled
		out.failed += ph.scheduled - int64(len(ph.lat))
	}
	account(g.warm())

	if _, err := p.phase("begin"); err != nil {
		return err
	}
	low := g.drive(serveLowRate, secs*3/20, 0)
	account(low)
	lowHandlerUS, err := p.phase("end")
	if err != nil {
		return err
	}
	high := g.drive(serveHighRate, secs*3/20, 0)
	account(high)
	x, sat := g.saturate(secs * 3 / 20)
	account(sat)
	capRate, probes := g.capacity(x, time.Second, secs*11/20, account)
	g.close()
	close(g.errs)
	for e := range g.errs {
		out.fail("loopback response check: %v", e)
	}

	var late []float64
	for _, ph := range []*phaseStats{low, high} {
		for _, v := range ph.late {
			late = append(late, float64(v)/1e3)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: loopback: spawn %.3fs, low p50 %.3f p99 %.3f ms, high p50 %.3f p99 %.3f ms, closed loop %.0f req/s, capacity %d req/s after %d probes, generator late p50 %.1f p99 %.1f us\n",
		setup.Seconds(), low.quantileMS(0.5), low.windowedP99MS(low.dueStart()), high.quantileMS(0.5), high.windowedP99MS(high.dueStart()),
		x, capRate, probes, quantile(late, 0.5), quantile(late, 0.99))
	l := out.layers
	l["serve.low_p50_ms"] = low.quantileMS(0.5)
	l["serve.low_p99_ms"] = low.windowedP99MS(low.dueStart())
	l["serve.high_p50_ms"] = high.quantileMS(0.5)
	l["serve.high_p99_ms"] = high.windowedP99MS(high.dueStart())
	l["serve.saturated_rps"] = x
	l["serve.capacity_rps"] = float64(capRate)
	l["net.residual_us"] = low.quantileMS(0.5)*1e3 - lowHandlerUS
	l["client.late_p99_us"] = quantile(late, 0.99)
	return nil
}
