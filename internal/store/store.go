// Package store is the durable observation store behind `-store` /
// `-resume`: a dependency-free embedded segmented append-only log holding
// one record per scanner.Observation, with CRC32-C checksummed record
// framing, an in-memory index keyed by (responder, round, vantage)
// rebuilt on open, crash-safe recovery that truncates a torn tail record,
// and periodic campaign checkpoints that let an interrupted campaign
// resume exactly where it stopped. See DESIGN.md §11 for the on-disk
// format and the recovery rules.
//
// Concurrency: a Store has a single writer (the campaign engine's
// dedicated store goroutine calls AppendRound) and any number of Readers;
// all exported methods are safe for concurrent use.
package store

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// ErrSimulatedCrash is returned by AppendRound when the CrashAfterRounds
// failpoint fires: the store has durably written only part of the round
// (plus a deliberately torn trailing record) and refuses further writes,
// exactly as if the process had died mid-append. cmd/repro exits with a
// distinct status on this error so the CI crash-recovery drill can assert
// the interruption happened.
var ErrSimulatedCrash = errors.New("store: simulated crash failpoint reached")

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// flushLatencyBounds are the store_flush_seconds histogram buckets.
var flushLatencyBounds = []float64{0.0005, 0.002, 0.01, 0.05, 0.25, 1}

// Options configures Open. The zero value is a usable default.
type Options struct {
	// SegmentSize is the rotation threshold in bytes; a segment that
	// reaches it is sealed and a new one started. 0 means
	// DefaultSegmentSize.
	SegmentSize int64
	// CheckpointEvery is how many appended rounds lie between
	// checkpoints. 0 means 1: every completed round is checkpointed,
	// so a crash loses at most the round in flight.
	CheckpointEvery int
	// NoSync disables fsync entirely (benchmarks; crash safety is then
	// up to the OS).
	NoSync bool
	// Metrics receives the store's counters (segments, bytes, records,
	// flush latency). Nil means a private registry.
	Metrics *metrics.Registry
	// CrashAfterRounds is a failpoint for crash-recovery drills: when
	// N > 0, the N-th AppendRound durably writes only half its records
	// plus a torn trailing record, then returns ErrSimulatedCrash and
	// refuses further writes. Never set it outside tests and the CI
	// drill.
	CrashAfterRounds int
}

// Key identifies one index cell: all observations of one responder from
// one vantage in one round.
type Key struct {
	Responder string
	// Round is the round's virtual timestamp as UnixNano.
	Round   int64
	Vantage string
}

// recordRef locates one record inside a segment file.
type recordRef struct {
	seg int   // segment index (not slice position)
	off int64 // file offset of the record header
	n   int32 // payload length
}

// Store is an open observation store. Create with Open.
type Store struct {
	dir string
	opt Options
	reg *metrics.Registry

	mu      sync.Mutex
	closed  bool
	failed  error // sticky first write failure; all later writes return it
	segs    []*segment
	w       frameWriter // the last segment, open for append
	flushed int64       // bytes of the active segment durable enough to read
	index   map[Key][]recordRef
	rounds  []int64 // distinct record round timestamps, ascending
	// roundCount includes empty rounds (every target expired), which
	// leave no records — the checkpoint carries their count across
	// reopens. lastRound/hasRound track the append high-water mark.
	roundCount int64
	lastRound  int64
	hasRound   bool
	scans      int64 // records on disk
	ckpt       *Checkpoint
	ckptSeq    uint64        // highest checkpoint sequence ever observed
	sinceCk    int           // rounds appended since the last checkpoint
	payload    func() []byte // optional engine snapshot for checkpoints

	encBuf  []byte // reusable observation encode buffer
	scanBuf []byte // reusable segment-scan payload buffer

	mSegments *metrics.Gauge
	mBytes    *metrics.Gauge
	mRecords  *metrics.Counter
	mRounds   *metrics.Counter
	mCkpts    *metrics.Counter
	mRecov    *metrics.Counter
}

// Open opens (creating if needed) the store in dir. Opening scans every
// segment to rebuild the index, truncates a torn tail record left by a
// crash, and loads the newest intact checkpoint.
func Open(dir string, opt Options) (*Store, error) {
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = DefaultSegmentSize
	}
	if opt.CheckpointEvery <= 0 {
		opt.CheckpointEvery = 1
	}
	reg := opt.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:       dir,
		opt:       opt,
		reg:       reg,
		w:         newFrameWriter(256 << 10),
		mSegments: reg.Gauge("store_segments"),
		mBytes:    reg.Gauge("store_bytes"),
		mRecords:  reg.Counter("store_records_appended_total"),
		mRounds:   reg.Counter("store_rounds_appended_total"),
		mCkpts:    reg.Counter("store_checkpoints_written_total"),
		mRecov:    reg.Counter("store_recovered_truncated_bytes_total"),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	return s, nil
}

// load rebuilds the in-memory state — segment list, index, round list,
// checkpoint — from the files in s.dir, truncating a torn tail record of
// the final segment. It does not open the active segment for writing.
func (s *Store) load() error {
	segs, err := obsFormat.list(s.dir)
	if err != nil {
		return err
	}
	s.segs = segs
	s.index = make(map[Key][]recordRef)
	s.rounds = nil
	s.scans = 0

	var lastRound int64
	for i, seg := range segs {
		seg.records, seg.firstAt, seg.lastAt = 0, 0, 0
		committed, buf, err := obsFormat.scanFile(seg.path, seg.index, -1, s.scanBuf, false, func(payload []byte, off int64) error {
			at, vantage, responder, err := decodeIndexKey(payload)
			if err != nil {
				return fmt.Errorf("store: %s offset %d: %w", seg.path, off, err)
			}
			if at < lastRound {
				return fmt.Errorf("store: %s offset %d: round %d out of order (after %d)", seg.path, off, at, lastRound)
			}
			if at > lastRound || len(s.rounds) == 0 {
				s.rounds = append(s.rounds, at)
				lastRound = at
			}
			key := Key{Responder: responder, Round: at, Vantage: vantage}
			s.index[key] = append(s.index[key], recordRef{seg: seg.index, off: off, n: int32(len(payload))})
			if seg.records == 0 {
				seg.firstAt = at
			}
			seg.lastAt = at
			seg.records++
			s.scans++
			return nil
		})
		s.scanBuf = buf
		if err != nil {
			return err
		}
		info, err := os.Stat(seg.path)
		if err != nil {
			return err
		}
		if committed < info.Size() {
			if i != len(segs)-1 {
				return fmt.Errorf("store: segment %s is corrupt mid-stream (%d of %d bytes intact); only the final segment may carry a torn tail", seg.path, committed, info.Size())
			}
			// Crash recovery: drop the torn tail record so the segment
			// ends on a clean record boundary.
			if err := os.Truncate(seg.path, committed); err != nil {
				return err
			}
			s.mRecov.Add(info.Size() - committed)
		}
		seg.size = committed
	}

	s.roundCount = int64(len(s.rounds))
	s.hasRound = len(s.rounds) > 0
	if s.hasRound {
		s.lastRound = s.rounds[len(s.rounds)-1]
	}

	ck, seq, err := loadLatestCheckpoint(s.dir)
	if err != nil {
		return err
	}
	s.ckptSeq = seq
	if ck != nil {
		if ck.Scans > s.scans {
			// A checkpoint is written only after its data is durable, so
			// it can never legitimately describe more records than the
			// log holds.
			return fmt.Errorf("store: checkpoint %d claims %d scans but the log holds only %d — segment data is missing or foreign", ck.Seq, ck.Scans, s.scans)
		}
		// Trailing empty rounds leave no records; the checkpoint is
		// their only trace.
		if !s.hasRound || ck.Round > s.lastRound {
			s.lastRound = ck.Round
			s.hasRound = true
		}
		if ck.Rounds > s.roundCount {
			s.roundCount = ck.Rounds
		}
	}
	s.ckpt = ck
	s.publishGauges()
	return nil
}

// openActive opens the last segment for appending, sealing it and
// starting a fresh one when it is already at the rotation threshold.
func (s *Store) openActive() error {
	if len(s.segs) == 0 || s.segs[len(s.segs)-1].size >= s.opt.SegmentSize {
		next := 0
		if n := len(s.segs); n > 0 {
			next = s.segs[n-1].index + 1
		}
		if err := s.startSegment(next); err != nil {
			return err
		}
	} else {
		seg := s.segs[len(s.segs)-1]
		f, err := os.OpenFile(seg.path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		if _, err := f.Seek(seg.size, 0); err != nil {
			return errors.Join(err, f.Close())
		}
		s.w.reset(f, seg.size)
		s.flushed = seg.size
	}
	s.publishGauges()
	return nil
}

// startSegment creates segment index and makes it the active segment.
func (s *Store) startSegment(index int) error {
	path, err := obsFormat.create(s.dir, index, os.O_EXCL, &s.w)
	if err != nil {
		return err
	}
	s.segs = append(s.segs, &segment{index: index, path: path, size: segHeaderSize})
	s.flushed = segHeaderSize
	s.reg.Counter("store_segments_created_total").Inc()
	return nil
}

// syncActive flushes the active segment and, unless NoSync, fsyncs it.
func (s *Store) syncActive() error {
	if err := s.w.bw.Flush(); err != nil {
		return err
	}
	if s.opt.NoSync {
		return nil
	}
	return s.w.f.Sync()
}

func (s *Store) publishGauges() {
	s.mSegments.Set(int64(len(s.segs)))
	var bytes int64
	for _, seg := range s.segs {
		bytes += seg.size
	}
	s.mBytes.Set(bytes)
}

// decodeIndexKey reads the three leading fields of an encoded
// observation — At, Vantage, Responder — which are exactly the index key.
func decodeIndexKey(payload []byte) (at int64, vantage, responder string, err error) {
	d := decoder{b: payload}
	t := d.time()
	vantage = d.string()
	responder = d.string()
	if d.err != nil {
		return 0, "", "", d.err
	}
	return t.UnixNano(), vantage, responder, nil
}

// AppendRound durably appends one completed round: every observation is
// framed, checksummed, and written to the active segment; the segment is
// flushed, and — every CheckpointEvery rounds — fsynced and checkpointed.
// Rounds must arrive in strictly increasing virtual-time order. The
// first write failure is sticky: the store refuses further appends so a
// half-written round is never extended.
func (s *Store) AppendRound(at time.Time, obs []scanner.Observation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.failed != nil {
		return s.failed
	}
	round := at.UnixNano()
	if s.hasRound && round <= s.lastRound {
		return fmt.Errorf("store: round %s does not advance past the last persisted round %s",
			at.UTC().Format(time.RFC3339Nano), time.Unix(0, s.lastRound).UTC().Format(time.RFC3339Nano))
	}

	crash := s.opt.CrashAfterRounds > 0 && s.roundCount+1 >= int64(s.opt.CrashAfterRounds)
	n := len(obs)
	if crash {
		n = len(obs) / 2
	}
	for i := 0; i < n; i++ {
		if err := s.appendRecord(round, &obs[i]); err != nil {
			s.failed = err
			return err
		}
	}
	if crash {
		if err := s.simulateCrash(obs, n); err != nil {
			s.failed = err
			return err
		}
		s.failed = ErrSimulatedCrash
		return s.failed
	}

	stop := s.reg.Timer("store_flush_seconds", flushLatencyBounds...)
	if err := s.w.bw.Flush(); err != nil {
		s.failed = err
		return err
	}
	s.flushed = s.segs[len(s.segs)-1].size
	if len(obs) > 0 {
		s.rounds = append(s.rounds, round)
	}
	s.roundCount++
	s.lastRound, s.hasRound = round, true
	s.scans += int64(len(obs))
	s.mRecords.Add(int64(len(obs)))
	s.mRounds.Inc()
	s.sinceCk++
	if s.sinceCk >= s.opt.CheckpointEvery {
		if err := s.checkpointLocked(); err != nil {
			s.failed = err
			return err
		}
		s.sinceCk = 0
	}
	stop()
	s.publishGauges()
	return nil
}

// appendRecord frames and buffers one observation, rotating the active
// segment first when it has reached the size threshold.
func (s *Store) appendRecord(round int64, o *scanner.Observation) error {
	seg := s.segs[len(s.segs)-1]
	if seg.size >= s.opt.SegmentSize {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		seg = s.segs[len(s.segs)-1]
	}
	s.encBuf = appendObservation(s.encBuf[:0], o)
	payload := s.encBuf
	off := seg.size
	if err := s.w.append(payload); err != nil {
		return err
	}
	seg.size = s.w.size
	if seg.records == 0 {
		seg.firstAt = round
	}
	seg.lastAt = round
	seg.records++
	key := Key{Responder: o.Responder, Round: round, Vantage: o.Vantage}
	s.index[key] = append(s.index[key], recordRef{seg: seg.index, off: off, n: int32(len(payload))})
	return nil
}

// rotateLocked seals the active segment (flush, fsync, close) and starts
// the next one.
func (s *Store) rotateLocked() error {
	if err := s.syncActive(); err != nil {
		return err
	}
	if err := s.w.close(); err != nil {
		return err
	}
	return s.startSegment(s.segs[len(s.segs)-1].index + 1)
}

// simulateCrash is the CrashAfterRounds failpoint body: the first half of
// the round is already buffered; write one deliberately torn record
// (header plus half a payload), make it all durable, and stop. Recovery
// on the next Open must truncate the torn record and resume from the last
// checkpoint.
func (s *Store) simulateCrash(obs []scanner.Observation, written int) error {
	if len(obs) > 0 {
		torn := &obs[written%len(obs)]
		s.encBuf = appendObservation(s.encBuf[:0], torn)
		if err := s.w.write(s.encBuf, len(s.encBuf)/2); err != nil {
			return err
		}
	}
	return s.syncActive()
}

// SetCheckpointPayload installs a callback that supplies an opaque
// snapshot (e.g. the campaign engine's metrics) stored inside every
// subsequent checkpoint. Purely informational: resume rebuilds aggregator
// state by replaying the log, not by deserializing this payload.
func (s *Store) SetCheckpointPayload(fn func() []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.payload = fn
}

// LastCheckpoint returns the newest intact checkpoint, if any.
func (s *Store) LastCheckpoint() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ckpt == nil {
		return Checkpoint{}, false
	}
	return *s.ckpt, true
}

// checkpointLocked fsyncs the active segment and writes a new checkpoint
// recording the round high-water mark.
func (s *Store) checkpointLocked() error {
	if err := s.syncActive(); err != nil {
		return err
	}
	ck := Checkpoint{
		Seq:    s.ckptSeq + 1,
		Round:  s.lastRound,
		Rounds: s.roundCount,
		Scans:  s.scans,
	}
	if s.payload != nil {
		ck.Payload = s.payload()
	}
	if err := writeCheckpoint(s.dir, ck, s.opt.NoSync); err != nil {
		return err
	}
	s.ckptSeq = ck.Seq
	s.ckpt = &ck
	s.mCkpts.Inc()
	// Retention: the newest checkpoint plus one predecessor survive;
	// anything older is superseded.
	return pruneCheckpoints(s.dir, ck.Seq, 2)
}

// TruncateAfter removes every record whose round is later than round
// (UnixNano) — the resume path's way of discarding a partially persisted
// round beyond the last checkpoint — then rewrites the checkpoint to
// match the new tail and rebuilds the index.
func (s *Store) TruncateAfter(round int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.close(); err != nil {
		return err
	}

	cut := -1 // first segment slice position to delete entirely
	for i, seg := range s.segs {
		if seg.records == 0 || seg.lastAt <= round {
			continue
		}
		if seg.firstAt > round {
			cut = i
			break
		}
		// The boundary segment: find the offset of the first record
		// past the cut and truncate there.
		var cutOff int64 = -1
		committed, buf, err := obsFormat.scanFile(seg.path, seg.index, -1, s.scanBuf, false, func(payload []byte, off int64) error {
			if cutOff >= 0 {
				return nil
			}
			at, err := decodeRecordAt(payload)
			if err != nil {
				return err
			}
			if at > round {
				cutOff = off
			}
			return nil
		})
		s.scanBuf = buf
		if err != nil {
			return err
		}
		if cutOff < 0 {
			cutOff = committed
		}
		if err := os.Truncate(seg.path, cutOff); err != nil {
			return err
		}
		cut = i + 1
		break
	}
	if cut >= 0 {
		for _, seg := range s.segs[cut:] {
			if err := os.Remove(seg.path); err != nil {
				return err
			}
		}
	}

	// Checkpoints past the cut describe rounds that no longer exist;
	// remove them so the newest survivor matches the new tail. In the
	// resume path round IS the newest checkpoint's round, so that
	// checkpoint — including its empty-round accounting — survives.
	if err := removeCheckpointsAfter(s.dir, round); err != nil {
		return err
	}
	if err := s.load(); err != nil {
		return err
	}
	if err := s.openActive(); err != nil {
		return err
	}
	s.sinceCk = 0
	return nil
}

// Rounds returns the persisted round timestamps (UnixNano), ascending.
// Rounds that carried no records (every target expired) leave no
// timestamps here; Stats().Rounds and the checkpoint count them.
func (s *Store) Rounds() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.rounds...)
}

// Keys returns every index key, sorted by (Round, Responder, Vantage) so
// iteration order is deterministic.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.index))
	for k := range s.index {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.Responder != b.Responder {
			return a.Responder < b.Responder
		}
		return a.Vantage < b.Vantage
	})
	return out
}

// Lookup returns the observations recorded for one index key, in append
// order, reading only those records from disk.
func (s *Store) Lookup(responder string, round int64, vantage string) ([]scanner.Observation, error) {
	s.mu.Lock()
	refs := append([]recordRef(nil), s.index[Key{Responder: responder, Round: round, Vantage: vantage}]...)
	paths := make(map[int]string, len(s.segs))
	for _, seg := range s.segs {
		paths[seg.index] = seg.path
	}
	s.mu.Unlock()

	var out []scanner.Observation
	var f *os.File
	open := -1
	defer func() {
		if f != nil {
			f.Close() //lint:allow errcheck-hot read-only handle, nothing to flush
		}
	}()
	buf := make([]byte, 0, 512)
	for _, ref := range refs {
		if open != ref.seg {
			if f != nil {
				if err := f.Close(); err != nil {
					return nil, err
				}
			}
			var err error
			f, err = os.Open(paths[ref.seg])
			if err != nil {
				return nil, err
			}
			open = ref.seg
		}
		if cap(buf) < int(ref.n)+recordHeaderSize {
			buf = make([]byte, int(ref.n)+recordHeaderSize)
		}
		rec := buf[:int(ref.n)+recordHeaderSize]
		if _, err := f.ReadAt(rec, ref.off); err != nil {
			return nil, err
		}
		payload, err := checkFrame(rec)
		if err != nil {
			return nil, fmt.Errorf("store: %s offset %d: %w", paths[ref.seg], ref.off, err)
		}
		o, err := decodeObservation(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
	return out, nil
}

// Stats summarizes the store for inspection tools.
type Stats struct {
	Segments  int
	Records   int64
	Rounds    int
	Bytes     int64
	IndexKeys int
	// Checkpoint is the newest intact checkpoint; HasCheckpoint reports
	// whether one exists.
	Checkpoint    Checkpoint
	HasCheckpoint bool
}

// Stats returns a snapshot of the store's shape.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Segments:  len(s.segs),
		Records:   s.scans,
		Rounds:    int(s.roundCount),
		IndexKeys: len(s.index),
	}
	for _, seg := range s.segs {
		st.Bytes += seg.size
	}
	if s.ckpt != nil {
		st.Checkpoint, st.HasCheckpoint = *s.ckpt, true
	}
	return st
}

// Segments describes the on-disk segment files in order.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.segs))
	for _, seg := range s.segs {
		out = append(out, SegmentInfo{
			Index:   seg.index,
			Path:    seg.path,
			Bytes:   seg.size,
			Records: seg.records,
			FirstAt: seg.firstAt,
			LastAt:  seg.lastAt,
		})
	}
	return out
}

// SegmentInfo describes one segment file.
type SegmentInfo struct {
	Index   int
	Path    string
	Bytes   int64
	Records int
	// FirstAt and LastAt are the rounds (UnixNano) of the first and last
	// record; both zero when the segment is empty.
	FirstAt, LastAt int64
}

// Close flushes and fsyncs the active segment and releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.w.f == nil {
		return nil
	}
	err := s.syncActive()
	if cerr := s.w.close(); err == nil {
		err = cerr
	}
	return err
}
