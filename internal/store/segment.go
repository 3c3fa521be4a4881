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
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Every segment file — observation log, corpus spill, report log — has
// the same shape (DESIGN.md §11): a fixed header
//
//	8-byte magic | u32 LE version | u32 LE segment index
//
// followed by records framed as u32 LE payload length | u32 LE CRC32-C
// of payload | payload (codec.go). Files are named prefix + six-digit
// index + suffix. Indexes increase monotonically but may have gaps after
// compaction merges neighbours; readers order segments by index, never
// by directory order.
const segHeaderSize = 16

// segFormat is one kind of segment file.
type segFormat struct {
	magic   string // exactly 8 bytes
	version uint32
	prefix  string
	suffix  string
}

var (
	// obsFormat is the observation log: fsynced, and a torn tail on the
	// final segment is recovered by truncation.
	obsFormat = segFormat{magic: "MSOBSLG1", version: codecVersion, prefix: "seg-", suffix: ".log"}
	// corpusFormat is the spilled certificate corpus (corpus.go).
	corpusFormat = segFormat{magic: "MSCORSG1", version: corpusVersion, prefix: "cor-", suffix: ".seg"}
	// reportFormat is the Expect-Staple report log (reportlog.go).
	reportFormat = segFormat{magic: "MSRPTSG1", version: 1, prefix: "rpt-", suffix: ".seg"}
)

// DefaultSegmentSize is the rotation threshold when Options.SegmentSize
// is zero. Small enough that compaction and truncation touch little data,
// large enough that a paper-scale campaign stays in tens of files.
const DefaultSegmentSize = 4 << 20

// segment is the in-memory description of one on-disk segment file. list
// fills in index and path; the observation store tracks the rest.
type segment struct {
	index   int
	path    string
	size    int64 // committed bytes, header included
	records int
	firstAt int64 // round of the first/last record (UnixNano);
	lastAt  int64 // meaningful only when records > 0
}

func (f segFormat) name(index int) string {
	return fmt.Sprintf("%s%06d%s", f.prefix, index, f.suffix)
}

// parse extracts the index from a segment file name. The header stores
// the index as a u32, so larger numbers are not segment names.
func (f segFormat) parse(name string) (int, bool) {
	if !strings.HasPrefix(name, f.prefix) || !strings.HasSuffix(name, f.suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(f.prefix):len(name)-len(f.suffix)], 10, 32)
	if err != nil {
		return 0, false
	}
	return int(n), true
}

// list returns dir's segments of this format sorted by index.
func (f segFormat) list(dir string) ([]*segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []*segment
	for _, e := range entries {
		if idx, ok := f.parse(e.Name()); ok && !e.IsDir() {
			segs = append(segs, &segment{index: idx, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

func (f segFormat) header(index int) []byte {
	h := make([]byte, segHeaderSize)
	copy(h, f.magic)
	binary.LittleEndian.PutUint32(h[8:], f.version)
	binary.LittleEndian.PutUint32(h[12:], uint32(index))
	return h
}

// checkHeader reads a segment header from r and validates its magic,
// version, and index.
func (f segFormat) checkHeader(r io.Reader, wantIndex int) error {
	h := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(r, h); err != nil {
		return fmt.Errorf("segment header: %w", err)
	}
	if string(h[:8]) != f.magic {
		return fmt.Errorf("segment magic %q, want %q", h[:8], f.magic)
	}
	if v := binary.LittleEndian.Uint32(h[8:]); v != f.version {
		return fmt.Errorf("%s segment version %d, want %d", f.magic, v, f.version)
	}
	if idx := int(binary.LittleEndian.Uint32(h[12:])); idx != wantIndex {
		return fmt.Errorf("segment header index %d does not match name index %d", idx, wantIndex)
	}
	return nil
}

// create makes segment index under dir, writes its header straight to
// the file so a reader never sees a header-less segment, and points w at
// the file for appends. flag is os.O_EXCL to refuse an existing file or
// os.O_TRUNC to regenerate it.
func (f segFormat) create(dir string, index, flag int, w *frameWriter) (path string, _ error) {
	path = filepath.Join(dir, f.name(index))
	file, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := file.Write(f.header(index)); err != nil {
		return "", errors.Join(err, file.Close())
	}
	w.reset(file, segHeaderSize)
	return path, nil
}

// scanFile checks the header of segment index at path and scans its
// records with scanFrames. limit, when non-negative, is the number of
// file bytes to read (a snapshot's committed range).
func (f segFormat) scanFile(path string, index int, limit int64, buf []byte, strict bool, fn func(payload []byte, off int64) error) (int64, []byte, error) {
	file, err := os.Open(path)
	if err != nil {
		return 0, buf, err
	}
	defer file.Close() //lint:allow errcheck-hot read-only handle, nothing to flush

	var r io.Reader = file
	if limit >= 0 {
		r = io.LimitReader(file, limit)
	}
	br := bufio.NewReaderSize(r, 64<<10)
	if err := f.checkHeader(br, index); err != nil {
		return 0, buf, fmt.Errorf("store: %s: %w", path, err)
	}
	committed, buf, err := scanFrames(br, segHeaderSize, buf, strict, fn)
	if fe, ok := err.(*frameError); ok {
		fe.path = path
	}
	return committed, buf, err
}

// frameWriter appends framed records to one segment file through a
// buffer. Its header scratch lives in the struct so appends do not
// allocate.
type frameWriter struct {
	f    *os.File
	bw   *bufio.Writer
	size int64 // bytes written to the file so far, header included
	hdr  [recordHeaderSize]byte
}

func newFrameWriter(bufSize int) frameWriter {
	return frameWriter{bw: bufio.NewWriterSize(nil, bufSize)}
}

// reset points w at f, whose first size bytes are already written.
func (w *frameWriter) reset(f *os.File, size int64) {
	w.f, w.size = f, size
	w.bw.Reset(f)
}

// append writes one framed record.
func (w *frameWriter) append(payload []byte) error {
	return w.write(payload, len(payload))
}

// write frames payload but writes only its first keep bytes; keep below
// len(payload) leaves the torn record the crash failpoint needs.
func (w *frameWriter) write(payload []byte, keep int) error {
	if len(payload) == 0 || len(payload) > maxRecordSize {
		return fmt.Errorf("store: record of %d bytes is outside 1..%d", len(payload), maxRecordSize)
	}
	binary.LittleEndian.PutUint32(w.hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := w.bw.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload[:keep]); err != nil {
		return err
	}
	w.size += recordHeaderSize + int64(keep)
	return nil
}

// close flushes and closes the file, returning the first error, and
// detaches w from it.
func (w *frameWriter) close() error {
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// frameLength validates a frame header's length field.
func frameLength(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxRecordSize {
		return 0, fmt.Errorf("impossible record length %d", n)
	}
	return int(n), nil
}

// checkFrame validates one whole frame — length field and checksum — and
// returns its payload.
func checkFrame(frame []byte) ([]byte, error) {
	n, err := frameLength(frame)
	if err != nil {
		return nil, err
	}
	if n != len(frame)-recordHeaderSize {
		return nil, fmt.Errorf("record length %d, want %d", n, len(frame)-recordHeaderSize)
	}
	payload := frame[recordHeaderSize:]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(frame[4:]) {
		return nil, errors.New("record failed its checksum")
	}
	return payload, nil
}

// frameError is a damaged or unreadable frame found by scanFrames.
type frameError struct {
	path string // set by scanFile
	off  int64
	err  error
}

func (e *frameError) Error() string {
	return fmt.Sprintf("store: %s offset %d: %v", e.path, e.off, e.err)
}

func (e *frameError) Unwrap() error { return e.err }

// scanFrames reads the records framed in r, which starts at file offset
// off, calling fn (when non-nil) with each payload and its offset. buf is
// reusable scratch and is returned, possibly grown. committed is the
// offset just past the last intact record.
//
// strict sets the torn-tail policy. A tolerant scan (crash recovery)
// ends at the first damaged frame — short header, impossible length,
// short payload, or checksum mismatch — and returns a nil error; a strict
// scan (committed data) returns a *frameError for it. Under both
// policies a read error other than EOF is returned, never taken for a
// torn tail, and an fn error stops the scan and is returned as is.
func scanFrames(r io.Reader, off int64, buf []byte, strict bool, fn func(payload []byte, off int64) error) (committed int64, _ []byte, _ error) {
	buf = slices.Grow(buf[:0], recordHeaderSize)
	for {
		hdr := buf[:recordHeaderSize]
		if _, err := io.ReadFull(r, hdr); err == io.EOF {
			return off, buf, nil // clean end on a record boundary
		} else if err != nil {
			return off, buf, readFailed(strict, off, err)
		}
		n, err := frameLength(hdr)
		if err != nil {
			return off, buf, damaged(strict, off, err)
		}
		buf = slices.Grow(buf[:recordHeaderSize], n)
		frame := buf[:recordHeaderSize+n]
		if _, err := io.ReadFull(r, frame[recordHeaderSize:]); err != nil {
			return off, buf, readFailed(strict, off, err)
		}
		payload, err := checkFrame(frame)
		if err != nil {
			return off, buf, damaged(strict, off, err)
		}
		if fn != nil {
			if err := fn(payload, off); err != nil {
				return off, buf, err
			}
		}
		off += int64(len(frame))
	}
}

// damaged applies the torn-tail policy to a damaged frame at off: the
// end of the log to a tolerant scan, an error to a strict one.
func damaged(strict bool, off int64, err error) error {
	if !strict {
		return nil
	}
	return &frameError{off: off, err: err}
}

// readFailed handles a read error partway through the frame at off.
// Running out of input is a torn frame; any other error is an error
// under both policies.
func readFailed(strict bool, off int64, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return damaged(strict, off, io.ErrUnexpectedEOF)
	}
	return &frameError{off: off, err: err}
}
