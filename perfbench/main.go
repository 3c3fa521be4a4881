// Command perfbench is the repository's same-host benchmark. It drives
// the system's four real uses from outside, through exported functions
// only, and prints one JSON result line:
//
//	campaign-hourly        the Hourly campaign over a fixed slice (Fig 3, 5–9)
//	campaign-alexa-stored  the Fig 4 impact campaign, persisted to a store
//	serve-mixed            the serving tier's handler, driven in process
//	                       (traced runs add a loopback server process)
//	staple-ingest          Expect-Staple reports into a collector and report log
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it wraps
// the seams the code exports (scanner.Transport, the netsim host handler,
// scanner aggregators, scanner.RoundSink, expectstaple.Sink, and the
// serving tier's HTTP handler) and reports a per-layer ledger instead.
// perfbench/run.py builds and runs it; see perfbench/NOTES.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// outcome is what one workload run produced.
type outcome struct {
	attempted, failed int64
	problems          []string           // failed output checks
	e2e               map[string]float64 // end-to-end metrics
	layers            map[string]float64 // per-layer metrics (traced runs)
}

func (o *outcome) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(o.problems) < 20 {
		o.problems = append(o.problems, msg)
	}
}

// runConfig carries the command-line settings to a workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory inside the checkout
	name    string
}

type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{"campaign-hourly", func(rc runConfig) (*outcome, error) { return runCampaign(rc, hourlySpec) }},
	{"campaign-alexa-stored", func(rc runConfig) (*outcome, error) { return runCampaign(rc, alexaSpec) }},
	{"serve-mixed", runServe},
	{"staple-ingest", runIngest},
}

// endToEnd and perLayer list every metric the result line carries, with
// its unit. Every run prints all of the set its mode selects; a layer a
// workload does not exercise reads 0.
var endToEnd = map[string]string{
	"setup_s":       "s",
	"ops_per_s":     "1/s",
	"heap_peak_mib": "MiB",
	"cpu_us_per_op": "us",
}

var perLayer = map[string]string{
	"netsim.self_us_per_scan":          "us",
	"ocspserver.hit_us":                "us",
	"responder.sign_us":                "us",
	"responder.sign_frac":              "ratio",
	"responder.cache_hit_frac":         "ratio",
	"scanner.agg_us_per_obs":           "us",
	"scanner.round_ms.p50":             "ms",
	"scanner.round_ms.p99":             "ms",
	"scanner.residual_cpu_us_per_scan": "us",
	"store.append_us_per_round":        "us",
	"store.bytes_per_obs":              "bytes",
	"store.wait_us_per_round":          "us",
	"ledger.unattributed_frac":         "ratio",
	"ocspserver.handler_us.get":        "us",
	"ocspserver.handler_us.post":       "us",
	"ocspserver.fastpath_hit_frac":     "ratio",
	"net.residual_us":                  "us",
	"client.late_p99_us":               "us",
	"serve.low_p50_ms":                 "ms",
	"serve.low_p99_ms":                 "ms",
	"serve.high_p50_ms":                "ms",
	"serve.high_p99_ms":                "ms",
	"serve.capacity_rps":               "1/s",
	"serve.saturated_rps":              "1/s",
	"expectstaple.report_p50_us":       "us",
	"expectstaple.report_p99_us":       "us",
	"expectstaple.serve_us_per_report": "us",
	"store.reportlog_append_us":        "us",
	"expectstaple.drain_ms":            "ms",
	"expectstaple.dropped_frac":        "ratio",
	"gc.cpu_frac":                      "ratio",
	"gc.pause_p99_us":                  "us",
	"sched.latency_p99_us":             "us",
	"alloc_bytes_per_op":               "bytes",
	"trace.overhead_frac":              "ratio",
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measurement time")
		trace   = flag.Int("trace", 0, "1: report the per-layer ledger instead of end-to-end metrics")
		work    = flag.String("work", ".bench_build/perfbench/work", "scratch directory")
		serve   = flag.Bool("serve", false, "internal: run as the serving-tier process")
		cpu     = flag.Int("cpu", -1, "internal: CPU the serving process pins itself to (-1: none)")
	)
	flag.Parse()
	if *serve {
		if err := serveMain(*seed, *cpu); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench server: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("%s-%d", wl.name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work dir: %v\n", err)
		os.Exit(1)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, work: dir, name: wl.name}
	out, err := wl.run(rc)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	printResult(out, rc.trace)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(o *outcome, trace bool) {
	set, vals := endToEnd, o.e2e
	if trace {
		set, vals = perLayer, o.layers
	}
	ms := make(map[string]metricValue, len(set))
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ms[n] = metricValue{Value: vals[n], Unit: set[n]}
		fmt.Fprintf(os.Stderr, "perfbench: %-34s %14.6g %s\n", n, vals[n], set[n])
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(o.problems) == 0, max(o.attempted, 1), o.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
