package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func corpusFixture() []CorpusRecord {
	return []CorpusRecord{
		{CA: "Let's Encrypt", Valid: true, SupportsOCSP: true},
		{CA: "", Valid: false, SupportsOCSP: false},
		{CA: "DFN", Valid: true, SupportsOCSP: true, MustStaple: true},
		{CA: "Comodo", Valid: false, SupportsOCSP: true},
		{CA: "UserTrust", Valid: true},
	}
}

func writeCorpusSegment(t *testing.T, dir string, index int, recs []CorpusRecord) {
	t.Helper()
	w, err := CreateCorpusSegment(dir, index)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Records(); got != int64(len(recs)) {
		t.Fatalf("Records() = %d, want %d", got, len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorpusSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := corpusFixture()
	writeCorpusSegment(t, dir, 3, want)

	var got []CorpusRecord
	err := ScanCorpusSegment(filepath.Join(dir, corpusFormat.name(3)), 3, func(rec CorpusRecord) error {
		got = append(got, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestScanCorpusOrdersSegmentsByIndex(t *testing.T) {
	dir := t.TempDir()
	// Write out of order; the scan must come back in index order.
	writeCorpusSegment(t, dir, 2, []CorpusRecord{{CA: "third"}})
	writeCorpusSegment(t, dir, 0, []CorpusRecord{{CA: "first"}})
	writeCorpusSegment(t, dir, 1, []CorpusRecord{{CA: "second"}})

	var cas []string
	err := ScanCorpus(dir, func(rec CorpusRecord) error {
		cas = append(cas, rec.CA)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	if !reflect.DeepEqual(cas, want) {
		t.Fatalf("scan order = %v, want %v", cas, want)
	}
}

func TestCorpusSegmentCorruptionIsHardError(t *testing.T) {
	dir := t.TempDir()
	writeCorpusSegment(t, dir, 0, corpusFixture())
	path := filepath.Join(dir, corpusFormat.name(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte: unlike the observation log's recoverable torn
	// tail, a corrupt corpus record must fail the scan.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScanCorpusSegment(path, 0, func(CorpusRecord) error { return nil }); err == nil {
		t.Fatal("scan of corrupt segment succeeded, want error")
	}

	// A truncated tail is equally fatal.
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScanCorpusSegment(path, 0, func(CorpusRecord) error { return nil }); err == nil {
		t.Fatal("scan of truncated segment succeeded, want error")
	}
}

func TestCorpusMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadCorpusMeta(dir); err != nil || ok {
		t.Fatalf("ReadCorpusMeta on empty dir = ok=%v err=%v, want absent", ok, err)
	}
	want := CorpusMeta{Version: 1, Seed: 42, ScaleFactor: 1000, Shards: 8, Records: 489_580}
	if err := WriteCorpusMeta(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadCorpusMeta(dir)
	if err != nil || !ok {
		t.Fatalf("ReadCorpusMeta = ok=%v err=%v, want present", ok, err)
	}
	if got != want {
		t.Fatalf("meta round trip = %+v, want %+v", got, want)
	}
}
