package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReportLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := CreateReportLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 500; i++ {
		p := []byte(fmt.Sprintf("report-%04d-%s", i, strings.Repeat("x", i%97)))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if l.Records() != 500 {
		t.Fatalf("Records = %d", l.Records())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got [][]byte
	if err := ScanReportLog(dir, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestReportLogRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := CreateReportLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	// ~64 KiB payloads force rotation at the 4 MiB threshold well before
	// the record count gets large.
	payload := bytes.Repeat([]byte{0xab}, 64<<10)
	const n = 100 // ~6.4 MiB total → at least two segments
	for i := 0; i < n; i++ {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if _, ok := reportFormat.parse(e.Name()); ok {
			segs++
		}
	}
	if segs < 2 {
		t.Fatalf("expected rotation to produce >= 2 segments, got %d", segs)
	}
	count := 0
	if err := ScanReportLog(dir, func(p []byte) error {
		if !bytes.Equal(p, payload) {
			t.Fatal("payload corrupted across rotation")
		}
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("scanned %d records across segments, want %d", count, n)
	}
}

func TestReportLogRejectsBadAppends(t *testing.T) {
	l, err := CreateReportLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := l.Append(make([]byte, maxRecordSize+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

// TestReportLogAppendAfterClose: a closed log refuses further appends
// with ErrClosed instead of writing through its released buffer, and the
// records appended before Close stay readable.
func TestReportLogAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := CreateReportLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("after")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	var got []string
	if err := ScanReportLog(dir, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "before" {
		t.Fatalf("persisted %q, want [before]", got)
	}
}

// TestReportLogCorruptionIsHardError: unlike the observation log, a
// damaged report record fails the scan — the log captures one run and
// corruption means rerun, not repair.
func TestReportLogCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	l, err := CreateReportLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, reportFormat.name(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte: CRC mismatch.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScanReportLog(dir, func([]byte) error { return nil }); err == nil {
		t.Fatal("CRC corruption not detected")
	}

	// Truncate mid-record: torn payload.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScanReportLog(dir, func([]byte) error { return nil }); err == nil {
		t.Fatal("torn record not detected")
	}

	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScanReportLog(dir, func([]byte) error { return nil }); err == nil {
		t.Fatal("bad magic not detected")
	}
}

// TestCreateReportLogClearsStaleSegments: a fresh log must not
// interleave with a previous run's arrival order.
func TestCreateReportLogClearsStaleSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := CreateReportLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("old-run")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := CreateReportLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("new-run")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := ScanReportLog(dir, func(p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "new-run" {
		t.Fatalf("stale segments leaked into the new run: %q", got)
	}
}

func TestParseReportSegmentName(t *testing.T) {
	cases := []struct {
		name string
		idx  int
		ok   bool
	}{
		{"rpt-000000.seg", 0, true},
		{"rpt-000042.seg", 42, true},
		{"rpt-.seg", 0, false},
		{"rpt-12ab.seg", 0, false},
		{"obs-000000.seg", 0, false},
		{"rpt-000000.tmp", 0, false},
		{"rpt-4294967295.seg", 4294967295, true},
		{"rpt-4294967296.seg", 0, false},           // the header index is a u32
		{"rpt-18446744073709551617.seg", 0, false}, // wraps a 64-bit accumulator
	}
	for _, c := range cases {
		idx, ok := reportFormat.parse(c.name)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("reportFormat.parse(%q) = %d,%v want %d,%v", c.name, idx, ok, c.idx, c.ok)
		}
	}
	if got := reportFormat.name(7); got != "rpt-000007.seg" {
		t.Errorf("reportFormat.name(7) = %q", got)
	}
}

// TestReportLogAppendDoesNotAllocate: the collector's allocation-free
// ingest path calls ReportLog.Append on every accepted report, and the
// corpus spill appends once per certificate, so neither may allocate
// per record.
func TestReportLogAppendDoesNotAllocate(t *testing.T) {
	l, err := CreateReportLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := []byte(`{"host":"a.example","class":"expired"}`)
	if n := testing.AllocsPerRun(200, func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReportLog.Append allocated %.1f times per record", n)
	}

	w, err := CreateCorpusSegment(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := CorpusRecord{CA: "Let's Encrypt", Valid: true, SupportsOCSP: true}
	if n := testing.AllocsPerRun(200, func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CorpusWriter.Append allocated %.1f times per record", n)
	}
}
