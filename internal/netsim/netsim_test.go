package netsim

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/memo"
)

var t0 = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)

func okHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	})
}

func oregon() Vantage { return PaperVantages()[0] }
func seoul() Vantage  { return PaperVantages()[5] }

func TestRegisteredHostReachable(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.a.test", "", okHandler("hello"))
	res, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.a.test/x", "", nil)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if res.Status != http.StatusOK || string(res.Body) != "hello" {
		t.Errorf("res = %d %q", res.Status, res.Body)
	}
	if res.Latency < oregon().BaseRTT {
		t.Errorf("latency %v below base RTT", res.Latency)
	}
}

func TestUnregisteredHostIsNXDOMAIN(t *testing.T) {
	n := New()
	_, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://nonexistent.test/", "", nil)
	var ne *Error
	if !errors.As(err, &ne) || ne.Kind != FailDNS {
		t.Fatalf("err = %v, want DNS failure", err)
	}
}

func TestPersistentDNSRuleForOneVantage(t *testing.T) {
	// The *.digitalcertvalidation.com case: permanent failures visible
	// only from São Paulo.
	n := New()
	n.RegisterHost("statush.digitalcertvalidation.test", "", okHandler("ok"))
	n.AddRule(&Rule{
		Host:       "statush.digitalcertvalidation.test",
		Vantages:   []string{"Sao-Paulo"},
		Kind:       FailHTTP,
		HTTPStatus: http.StatusNotFound,
	})
	sp := PaperVantages()[2]
	res, err := n.DoSimple(sp, t0, http.MethodGet, "http://statush.digitalcertvalidation.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusNotFound {
		t.Errorf("São Paulo should see 404, got %d", res.Status)
	}
	res, err = n.DoSimple(oregon(), t0, http.MethodGet, "http://statush.digitalcertvalidation.test/", "", nil)
	if err != nil || res.Status != http.StatusOK {
		t.Errorf("Oregon should succeed, got %v %v", res, err)
	}
}

func TestWindowedOutage(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.comodoca.test", "", okHandler("ok"))
	outage := Window{From: t0.Add(19 * time.Hour), To: t0.Add(21 * time.Hour)}
	n.AddRule(&Rule{
		Host:     "ocsp.comodoca.test",
		Vantages: []string{"Oregon", "Sydney", "Seoul"},
		Windows:  []Window{outage},
		Kind:     FailTCP,
	})
	// Before the window: fine.
	if _, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.comodoca.test/", "", nil); err != nil {
		t.Errorf("before window: %v", err)
	}
	// Inside the window, from an affected vantage: TCP failure.
	_, err := n.DoSimple(oregon(), t0.Add(20*time.Hour), http.MethodGet, "http://ocsp.comodoca.test/", "", nil)
	var ne *Error
	if !errors.As(err, &ne) || ne.Kind != FailTCP {
		t.Errorf("inside window: err = %v, want TCP failure", err)
	}
	// Inside the window from an unaffected vantage: fine (the paper's
	// regional outages were only observed at specific clients).
	virginia := PaperVantages()[1]
	if _, err := n.DoSimple(virginia, t0.Add(20*time.Hour), http.MethodGet, "http://ocsp.comodoca.test/", "", nil); err != nil {
		t.Errorf("Virginia should be unaffected: %v", err)
	}
	// At the window boundary (To is exclusive): recovered.
	if _, err := n.DoSimple(oregon(), t0.Add(21*time.Hour), http.MethodGet, "http://ocsp.comodoca.test/", "", nil); err != nil {
		t.Errorf("after window: %v", err)
	}
}

func TestBackendGroupOutage(t *testing.T) {
	// 8 hostnames CNAME to ocsp.comodoca.com and 6 share its IP: one
	// backend rule takes them all down.
	n := New()
	hosts := []string{"ocsp.comodoca.test", "ocsp.usertrust.test", "ocsp.positivessl.test"}
	for _, h := range hosts {
		n.RegisterHost(h, "comodo-backend", okHandler("ok"))
	}
	n.AddRule(&Rule{
		Backend: "comodo-backend",
		Windows: []Window{{From: t0, To: t0.Add(2 * time.Hour)}},
		Kind:    FailTCP,
	})
	for _, h := range hosts {
		if _, err := n.DoSimple(oregon(), t0.Add(time.Hour), http.MethodGet, "http://"+h+"/", "", nil); err == nil {
			t.Errorf("%s should be down with its backend", h)
		}
		if _, err := n.DoSimple(oregon(), t0.Add(3*time.Hour), http.MethodGet, "http://"+h+"/", "", nil); err != nil {
			t.Errorf("%s should recover: %v", h, err)
		}
	}
	if got := n.Backend(hosts[0]); got != "comodo-backend" {
		t.Errorf("Backend = %q", got)
	}
}

func TestTLSFailureRule(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.badcert.test", "", okHandler("ok"))
	n.AddRule(&Rule{Host: "ocsp.badcert.test", Kind: FailTLS})
	_, err := n.DoSimple(seoul(), t0, http.MethodGet, "https://ocsp.badcert.test/", "", nil)
	var ne *Error
	if !errors.As(err, &ne) || ne.Kind != FailTLS {
		t.Fatalf("err = %v, want TLS failure", err)
	}
	if ne.Error() == "" {
		t.Error("Error() should be descriptive")
	}
}

func TestRuleWithoutTargetNeverMatches(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.ok.test", "", okHandler("ok"))
	n.AddRule(&Rule{Kind: FailTCP}) // neither Host nor Backend
	if _, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.ok.test/", "", nil); err != nil {
		t.Errorf("target-less rule must not match: %v", err)
	}
}

func TestHTTPRuleDefaultStatus(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.h.test", "", okHandler("ok"))
	n.AddRule(&Rule{Host: "ocsp.h.test", Kind: FailHTTP})
	res, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.h.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusInternalServerError {
		t.Errorf("default injected status = %d, want 500", res.Status)
	}
}

func TestLatencyDeterminism(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.lat.test", "", okHandler("ok"))
	a, err := n.DoSimple(seoul(), t0, http.MethodGet, "http://ocsp.lat.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.DoSimple(seoul(), t0.Add(10*time.Minute), http.MethodGet, "http://ocsp.lat.test/", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency {
		t.Errorf("same hour should give same latency: %v vs %v", a.Latency, b.Latency)
	}
	c, _ := n.DoSimple(seoul(), t0, http.MethodGet, "http://ocsp.lat.test/", "", nil)
	if a.Latency != c.Latency {
		t.Error("latency must be deterministic")
	}
}

// TestLatencyMatchesStringKey pins latency to the formula it had when it
// hashed a concatenated string, over vantages, hosts (past the stack
// buffer too) and instants in several zones, so no figure moves.
func TestLatencyMatchesStringKey(t *testing.T) {
	n := New()
	hosts := []string{"", "ocsp.lat.test", "ocsp.digicert.com", strings.Repeat("long-host.", 20) + "test"}
	zones := []*time.Location{time.UTC, time.FixedZone("", 5*3600+1800), time.FixedZone("PST", -8*3600)}
	instants := []time.Time{t0, t0.Add(59 * time.Minute), t0.Add(90*time.Minute + 7*time.Second), time.Time{}, time.Date(9999, 12, 31, 23, 59, 0, 0, time.UTC)}
	vantages := append(PaperVantages(), Vantage{Name: strings.Repeat("v", 150), BaseRTT: time.Millisecond})
	for _, v := range vantages {
		for _, host := range hosts {
			for _, at := range instants {
				for _, z := range zones {
					at := at.In(z)
					h := memo.Hash(v.Name + "|" + host + "|" + at.Truncate(time.Hour).Format(time.RFC3339))
					want := v.BaseRTT + time.Duration(h%20)*time.Millisecond
					if got := n.latency(v, host, at); got != want {
						t.Fatalf("latency(%q, %q, %v) = %v, want %v", v.Name, host, at, got, want)
					}
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { n.latency(seoul(), "ocsp.lat.test", t0) }); allocs != 0 {
		t.Errorf("latency allocates %v times per call, want 0", allocs)
	}
}

func TestHostsListing(t *testing.T) {
	n := New()
	n.RegisterHost("b.test", "", okHandler(""))
	n.RegisterHost("a.test", "", okHandler(""))
	got := n.Hosts()
	if len(got) != 2 || got[0] != "a.test" || got[1] != "b.test" {
		t.Errorf("Hosts = %v", got)
	}
}

func TestPaperVantages(t *testing.T) {
	vs := PaperVantages()
	if len(vs) != 6 {
		t.Fatalf("got %d vantages, want 6", len(vs))
	}
	names := map[string]bool{}
	for _, v := range vs {
		names[v.Name] = true
		if v.BaseRTT <= 0 {
			t.Errorf("%s has non-positive RTT", v.Name)
		}
	}
	for _, want := range []string{"Oregon", "Virginia", "Sao-Paulo", "Paris", "Sydney", "Seoul"} {
		if !names[want] {
			t.Errorf("missing vantage %s", want)
		}
	}
}

func TestWindowSemantics(t *testing.T) {
	w := Window{From: t0, To: t0.Add(time.Hour)}
	if w.Contains(t0.Add(-time.Second)) {
		t.Error("before From")
	}
	if !w.Contains(t0) {
		t.Error("From is inclusive")
	}
	if w.Contains(t0.Add(time.Hour)) {
		t.Error("To is exclusive")
	}
	// Open-ended windows.
	if !(Window{}).Contains(t0) {
		t.Error("zero window contains everything")
	}
	if !(Window{From: t0}).Contains(t0.AddDate(10, 0, 0)) {
		t.Error("open To extends forever")
	}
	if !(Window{To: t0.Add(time.Hour)}).Contains(t0) {
		t.Error("open From extends backwards")
	}
}

func TestServeCostHook(t *testing.T) {
	n := New()
	n.RegisterHost("ocsp.cost.test", "", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Responder-Source", r.URL.Query().Get("src"))
		w.Write([]byte("ok"))
	}))

	// Default: no hook, latency is the pure network model.
	base, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.cost.test/?src=sign", "", nil)
	if err != nil {
		t.Fatal(err)
	}

	signCost, cacheCost := 40*time.Millisecond, time.Millisecond
	n.SetServeCost(func(h http.Header) time.Duration {
		switch h.Get("X-Responder-Source") {
		case "sign":
			return signCost
		case "cache":
			return cacheCost
		}
		return 0
	})
	signed, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.cost.test/?src=sign", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.cost.test/?src=cache", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := signed.Latency - base.Latency; got != signCost {
		t.Errorf("signed serve cost added %v, want %v", got, signCost)
	}
	if got := cached.Latency - base.Latency; got != cacheCost {
		t.Errorf("cached serve cost added %v, want %v", got, cacheCost)
	}

	// Clearing the hook restores the pure model.
	n.SetServeCost(nil)
	again, err := n.DoSimple(oregon(), t0, http.MethodGet, "http://ocsp.cost.test/?src=sign", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Latency != base.Latency {
		t.Errorf("after clearing hook latency = %v, want %v", again.Latency, base.Latency)
	}
}
