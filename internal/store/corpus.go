package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Corpus segments hold a spilled synthetic certificate corpus — the
// census generator's output, streamed to disk shard by shard so a
// paper-scale (hundreds of millions of certificates) world never has to
// live in memory. They are cor-NNNNNN.seg files in the shared segment
// format (corpusFormat, segment.go).
//
// One segment per generator shard, with the exact Must-Staple tier as
// the final segment, so segment order is stream order. Unlike the
// observation log, the corpus is derived data regenerated from a seed:
// a torn or corrupt record is a hard error (re-spill to repair), never a
// recoverable tail, and nothing is fsynced on the write path.
const (
	corpusVersion  = 1
	corpusMetaName = "corpus.json"
)

// CorpusRecord is one spilled certificate. It mirrors census.CertInfo
// field for field; the store keeps its own copy so the on-disk format
// does not import the generator.
type CorpusRecord struct {
	CA           string
	Valid        bool
	SupportsOCSP bool
	MustStaple   bool
}

// CorpusMeta is the spill directory's commit record, written atomically
// after every segment so readers can tell a finished spill from a torn
// one — and tell whose corpus it is, so a directory spilled for one
// (seed, scale) is never silently reused for another.
type CorpusMeta struct {
	Version     int   `json:"version"`
	Seed        int64 `json:"seed"`
	ScaleFactor int   `json:"scale_factor"`
	// Shards counts the general-population segments; the Must-Staple
	// tier is the extra segment at index Shards.
	Shards  int   `json:"shards"`
	Records int64 `json:"records"`
}

// WriteCorpusMeta commits the meta file via temp-file + rename, the same
// atomicity discipline as checkpoints: readers see the old meta or the
// new one, never a torn write.
func WriteCorpusMeta(dir string, m CorpusMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: corpus meta: %w", err)
	}
	tmp := filepath.Join(dir, corpusMetaName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, corpusMetaName))
}

// ReadCorpusMeta reads the spill directory's meta file. ok is false when
// the directory has no committed meta (an empty or in-progress spill).
func ReadCorpusMeta(dir string) (m CorpusMeta, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, corpusMetaName))
	if errors.Is(err, os.ErrNotExist) {
		return CorpusMeta{}, false, nil
	}
	if err != nil {
		return CorpusMeta{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return CorpusMeta{}, false, fmt.Errorf("store: corpus meta: %w", err)
	}
	if m.Version != corpusVersion {
		return CorpusMeta{}, false, fmt.Errorf("store: corpus meta version %d, want %d", m.Version, corpusVersion)
	}
	return m, true, nil
}

// CorpusWriter appends records to one corpus segment.
type CorpusWriter struct {
	w       frameWriter
	scratch []byte
	records int64
}

// CreateCorpusSegment creates (or truncates — spills are idempotent
// regenerations, so overwriting a stale segment is the repair path)
// segment index under dir and returns a writer positioned for appends.
func CreateCorpusSegment(dir string, index int) (*CorpusWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &CorpusWriter{w: newFrameWriter(64 << 10)}
	if _, err := corpusFormat.create(dir, index, os.O_TRUNC, &w.w); err != nil {
		return nil, err
	}
	return w, nil
}

// Append writes one framed record.
func (w *CorpusWriter) Append(rec CorpusRecord) error {
	w.scratch = appendCorpusRecord(w.scratch[:0], rec)
	if err := w.w.append(w.scratch); err != nil {
		return err
	}
	w.records++
	return nil
}

// Records returns how many records have been appended.
func (w *CorpusWriter) Records() int64 { return w.records }

// Close flushes and closes the segment. No fsync: the corpus is derived
// data, and the meta file is the commit point.
func (w *CorpusWriter) Close() error { return w.w.close() }

// ScanCorpusSegment streams every record of one segment through fn.
// Corruption anywhere — bad header, bad CRC, torn tail — is a hard
// error: corpus segments are written in full and committed by the meta
// file, so a damaged one means the spill must be regenerated.
func ScanCorpusSegment(path string, index int, fn func(CorpusRecord) error) error {
	_, _, err := corpusFormat.scanFile(path, index, -1, nil, true, func(payload []byte, off int64) error {
		rec, err := decodeCorpusRecord(payload)
		if err != nil {
			return fmt.Errorf("store: %s offset %d: %w", path, off, err)
		}
		return fn(rec)
	})
	return err
}

// ScanCorpus streams every record of a committed spill directory through
// fn, segments in index order — which is the generator's stream order.
func ScanCorpus(dir string, fn func(CorpusRecord) error) error {
	segs, err := corpusFormat.list(dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if err := ScanCorpusSegment(s.path, s.index, fn); err != nil {
			return err
		}
	}
	return nil
}

// Corpus record payload: uvarint CA length | CA bytes | flag byte
// (bit 0 Valid, bit 1 SupportsOCSP, bit 2 MustStaple).
func appendCorpusRecord(b []byte, rec CorpusRecord) []byte {
	b = appendString(b, rec.CA)
	var flags byte
	if rec.Valid {
		flags |= 1
	}
	if rec.SupportsOCSP {
		flags |= 2
	}
	if rec.MustStaple {
		flags |= 4
	}
	return append(b, flags)
}

func decodeCorpusRecord(b []byte) (CorpusRecord, error) {
	d := decoder{b: b}
	var rec CorpusRecord
	rec.CA = d.string()
	flags := d.rawByte()
	if d.err != nil {
		return CorpusRecord{}, d.err
	}
	if d.off != len(d.b) {
		return CorpusRecord{}, fmt.Errorf("store: %d trailing bytes after corpus record", len(d.b)-d.off)
	}
	if flags > 7 {
		return CorpusRecord{}, fmt.Errorf("store: bad corpus record flags %#x", flags)
	}
	rec.Valid = flags&1 != 0
	rec.SupportsOCSP = flags&2 != 0
	rec.MustStaple = flags&4 != 0
	return rec, nil
}
