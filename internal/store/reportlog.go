package store

import (
	"os"
)

// Report-log segments hold the Expect-Staple collector's accepted
// violation reports, append-only and in arrival order. The store treats
// each report as an opaque payload (the wire codec lives in
// internal/expectstaple; the store must not import its producers) and
// writes rpt-NNNNNN.seg files in the shared segment format
// (reportFormat, segment.go).
//
// Segments rotate at a size threshold so a long ingest run never grows
// one unbounded file, and segment order is arrival order. Like the
// corpus — and unlike the observation log — a damaged record is a hard
// error: the log is written by one collector in one run, so corruption
// means the run must be repeated, not repaired around.
//
// reportSegmentMaxBytes triggers rotation; ~4 MiB keeps segments
// mmap-friendly and bounds the cost of a torn tail to one segment.
const reportSegmentMaxBytes = 4 << 20

// ReportLog appends opaque report payloads to a rotating segment
// sequence. It is not safe for concurrent use; the collector serializes
// appends (arrival order is the log's meaning).
type ReportLog struct {
	dir     string
	w       frameWriter
	index   int
	records int64
}

// CreateReportLog starts a fresh log under dir, removing any previous
// run's segments (a report log captures one ingest run; stale segments
// from an earlier run must not interleave with the new arrival order).
func CreateReportLog(dir string) (*ReportLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stale, err := reportFormat.list(dir)
	if err != nil {
		return nil, err
	}
	for _, seg := range stale {
		if err := os.Remove(seg.path); err != nil {
			return nil, err
		}
	}
	l := &ReportLog{dir: dir, w: newFrameWriter(64 << 10)}
	if err := l.openSegment(0); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ReportLog) openSegment(index int) error {
	if _, err := reportFormat.create(l.dir, index, os.O_TRUNC, &l.w); err != nil {
		return err
	}
	l.index = index
	return nil
}

// Append frames and writes one payload, rotating the segment when the
// size threshold is crossed. The payload is copied into the write buffer
// before Append returns, so callers may reuse it (the collector's pooled
// read buffer depends on this). Append after Close returns ErrClosed.
func (l *ReportLog) Append(payload []byte) error {
	if l.w.f == nil {
		return ErrClosed
	}
	if l.w.size >= reportSegmentMaxBytes {
		if err := l.w.close(); err != nil {
			return err
		}
		if err := l.openSegment(l.index + 1); err != nil {
			return err
		}
	}
	if err := l.w.append(payload); err != nil {
		return err
	}
	l.records++
	return nil
}

// Records returns how many payloads have been appended.
func (l *ReportLog) Records() int64 { return l.records }

// Close flushes and closes the current segment.
func (l *ReportLog) Close() error {
	if l.w.f == nil {
		return nil
	}
	return l.w.close()
}

// ScanReportLog streams every payload of a report-log directory through
// fn, segments in index order and records in append order — the
// collector's arrival order. The payload slice is reused between calls;
// fn must not retain it.
func ScanReportLog(dir string, fn func(payload []byte) error) error {
	segs, err := reportFormat.list(dir)
	if err != nil {
		return err
	}
	var buf []byte
	for _, seg := range segs {
		_, buf, err = reportFormat.scanFile(seg.path, seg.index, -1, buf, true, func(payload []byte, _ int64) error {
			return fn(payload)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
