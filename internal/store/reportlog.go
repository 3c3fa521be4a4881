package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Report-log segments hold the Expect-Staple collector's accepted
// violation reports, append-only and in arrival order. The store treats
// each report as an opaque payload (the wire codec lives in
// internal/expectstaple; the store must not import its producers) and
// reuses the observation log's framing discipline:
//
//	rpt-NNNNNN.seg: 8-byte magic "MSRPTSG1" | u32 LE codec version |
//	                u32 LE segment index, then records framed as
//	                u32 LE payload length | u32 LE CRC32-C | payload.
//
// Segments rotate at a size threshold so a long ingest run never grows
// one unbounded file, and segment order is arrival order. Like the
// corpus — and unlike the observation log — a damaged record is a hard
// error: the log is written by one collector in one run, so corruption
// means the run must be repeated, not repaired around.
const (
	reportLogMagic   = "MSRPTSG1"
	reportLogVersion = 1
	reportLogPrefix  = "rpt-"
	reportLogSuffix  = ".seg"

	// reportSegmentMaxBytes triggers rotation; ~4 MiB keeps segments
	// mmap-friendly and bounds the cost of a torn tail to one segment.
	reportSegmentMaxBytes = 4 << 20
)

func reportSegmentName(index int) string {
	return fmt.Sprintf("%s%06d%s", reportLogPrefix, index, reportLogSuffix)
}

func parseReportSegmentName(name string) (int, bool) {
	if !strings.HasPrefix(name, reportLogPrefix) || !strings.HasSuffix(name, reportLogSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, reportLogPrefix), reportLogSuffix)
	if digits == "" {
		return 0, false
	}
	n := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// ReportLog appends opaque report payloads to a rotating segment
// sequence. It is not safe for concurrent use; the collector serializes
// appends (arrival order is the log's meaning).
type ReportLog struct {
	dir     string
	f       *os.File
	bw      *bufio.Writer
	index   int
	written int64
	records int64
}

// CreateReportLog starts a fresh log under dir, removing any previous
// run's segments (a report log captures one ingest run; stale segments
// from an earlier run must not interleave with the new arrival order).
func CreateReportLog(dir string) (*ReportLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if _, ok := parseReportSegmentName(e.Name()); ok {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, err
			}
		}
	}
	l := &ReportLog{dir: dir}
	if err := l.openSegment(0); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *ReportLog) openSegment(index int) error {
	path := filepath.Join(l.dir, reportSegmentName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	h := make([]byte, segHeaderSize)
	copy(h, reportLogMagic)
	binary.LittleEndian.PutUint32(h[8:], reportLogVersion)
	binary.LittleEndian.PutUint32(h[12:], uint32(index))
	if _, err := bw.Write(h); err != nil {
		return errors.Join(err, f.Close())
	}
	l.f, l.bw, l.index, l.written = f, bw, index, int64(segHeaderSize)
	return nil
}

// Append frames and writes one payload, rotating the segment when the
// size threshold is crossed. The payload is copied into the write buffer
// before Append returns, so callers may reuse it (the collector's pooled
// read buffer depends on this). Append after Close returns ErrClosed.
func (l *ReportLog) Append(payload []byte) error {
	if l.bw == nil {
		return ErrClosed
	}
	if len(payload) == 0 {
		return errors.New("store: empty report payload")
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("store: report payload of %d bytes exceeds limit", len(payload))
	}
	if l.written >= reportSegmentMaxBytes {
		if err := l.closeSegment(); err != nil {
			return err
		}
		if err := l.openSegment(l.index + 1); err != nil {
			return err
		}
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := l.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.bw.Write(payload); err != nil {
		return err
	}
	l.written += int64(recordHeaderSize + len(payload))
	l.records++
	return nil
}

// Records returns how many payloads have been appended.
func (l *ReportLog) Records() int64 { return l.records }

func (l *ReportLog) closeSegment() error {
	ferr := l.bw.Flush()
	return errors.Join(ferr, l.f.Close())
}

// Close flushes and closes the current segment.
func (l *ReportLog) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.closeSegment()
	l.f, l.bw = nil, nil
	return err
}

// ScanReportLog streams every payload of a report-log directory through
// fn, segments in index order and records in append order — the
// collector's arrival order. The payload slice is reused between calls;
// fn must not retain it.
func ScanReportLog(dir string, fn func(payload []byte) error) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type seg struct {
		index int
		path  string
	}
	var segs []seg
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		idx, ok := parseReportSegmentName(e.Name())
		if !ok {
			continue
		}
		segs = append(segs, seg{index: idx, path: filepath.Join(dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	var buf []byte
	for _, s := range segs {
		if err := scanReportSegment(s.path, s.index, &buf, fn); err != nil {
			return err
		}
	}
	return nil
}

func scanReportSegment(path string, index int, buf *[]byte, fn func([]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //lint:allow errcheck-hot read-only handle, nothing to flush

	br := bufio.NewReaderSize(f, 64<<10)
	h := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(br, h); err != nil {
		return fmt.Errorf("store: report segment header: %w", err)
	}
	if string(h[:8]) != reportLogMagic {
		return fmt.Errorf("store: bad report segment magic %q", h[:8])
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != reportLogVersion {
		return fmt.Errorf("store: report segment version %d, want %d", v, reportLogVersion)
	}
	if idx := int(binary.LittleEndian.Uint32(h[12:])); idx != index {
		return fmt.Errorf("store: report segment header index %d does not match name index %d", idx, index)
	}

	hdr := make([]byte, recordHeaderSize)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("store: %s: torn record header: %w", path, err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if length == 0 || length > maxRecordSize {
			return fmt.Errorf("store: %s: corrupt record length %d", path, length)
		}
		if int(length) > cap(*buf) {
			*buf = make([]byte, length)
		}
		payload := (*buf)[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return fmt.Errorf("store: %s: torn record payload: %w", path, err)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return fmt.Errorf("store: %s: record CRC mismatch", path)
		}
		if err := fn(payload); err != nil {
			return err
		}
	}
}
