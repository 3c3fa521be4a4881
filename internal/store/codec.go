package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// Record framing, shared by every segment kind (segment.go). Every
// observation, corpus record and report is one record:
//
//	u32 LE payload length | u32 LE CRC32-C of payload | payload
//
// The length comes first so recovery can skip to the checksum without
// decoding, and the CRC covers only the payload — a torn header is
// detected by the length/size bounds, a torn payload by the checksum.
const (
	recordHeaderSize = 8
	// maxRecordSize bounds a single payload. Records are a few hundred
	// bytes; anything past this is a corrupt length field, not a real
	// record.
	maxRecordSize = 1 << 20
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64
// and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// codecVersion is the observation payload format version, stored in each
// segment header. Bump when the field list below changes.
const codecVersion = 1

// appendObservation appends the deterministic binary encoding of o to b.
// The field order is fixed and documented in DESIGN.md §11: At leads so
// recovery and truncation can read a record's round without decoding the
// rest. Strings are uvarint-length-prefixed, integers are varints, and
// times are a presence byte followed by varint UnixNano (the zero
// time.Time has no UnixNano representation).
func appendObservation(b []byte, o *scanner.Observation) []byte {
	b = appendTime(b, o.At)
	b = appendString(b, o.Vantage)
	b = appendString(b, o.Responder)
	b = appendString(b, o.Domain)
	b = binary.AppendVarint(b, int64(o.DomainWeight))
	b = appendString(b, o.Serial)
	b = binary.AppendVarint(b, int64(o.Latency))
	b = binary.AppendVarint(b, int64(o.Class))
	b = binary.AppendVarint(b, int64(o.HTTPStatus))
	b = binary.AppendVarint(b, int64(o.OCSPStatus))
	b = binary.AppendVarint(b, int64(o.Attempts))
	b = binary.AppendVarint(b, int64(o.FinalClass))
	b = appendBool(b, o.Salvaged)
	b = binary.AppendVarint(b, int64(o.CertStatus))
	b = appendTime(b, o.ProducedAt)
	b = appendTime(b, o.ThisUpdate)
	b = appendTime(b, o.NextUpdate)
	b = appendBool(b, o.HasNextUpdate)
	b = binary.AppendVarint(b, int64(o.NumCerts))
	b = binary.AppendVarint(b, int64(o.NumSerials))
	b = appendTime(b, o.RevokedAt)
	b = binary.AppendVarint(b, int64(o.Reason))
	b = binary.AppendVarint(b, int64(o.CacheMaxAge))
	return b
}

// internTable deduplicates decoded string fields across the records of
// one scan. Observation streams repeat Vantage, Responder, Domain, and
// Serial values heavily (a campaign has a handful of vantages and
// responders, and retries repeat whole identities), so handing back one
// shared string per distinct value cuts scan decoding from one
// allocation per string field to one per distinct value. The map is
// capped: a stream with unbounded distinct values (e.g. random serials)
// degrades to plain allocation instead of growing the table forever.
type internTable struct {
	m map[string]string
}

// internTableCap bounds the distinct values remembered per scan. 4096
// comfortably covers real campaigns (vantages × responders × domains in
// the thousands) at well under a megabyte of table.
const internTableCap = 4096

func newInternTable() *internTable {
	return &internTable{m: make(map[string]string, 64)}
}

// intern returns the canonical string for b, allocating only on first
// sight. The m[string(b)] lookup compiles to a no-allocation map probe.
//
//lint:allocfree
func (t *internTable) intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b) //lint:allow allocfree first sight of a value only; the capped table amortizes this to zero across a scan
	if len(t.m) < internTableCap {
		t.m[s] = s
	}
	return s
}

// decodeObservation decodes a payload produced by appendObservation. It
// never panics on corrupt input: every error is reported, including
// trailing garbage (a strict codec keeps the fuzz round-trip exact).
func decodeObservation(b []byte) (scanner.Observation, error) {
	return decodeObservationInterned(b, nil)
}

// decodeObservationInterned is decodeObservation with the scan-shared
// intern table threaded through; it is nil for one-shot decodes.
// BenchmarkStoreScan's allocs/record guard enforces the steady state at
// runtime; the //lint:allocfree contract enforces it at lint time.
//
//lint:allocfree
func decodeObservationInterned(b []byte, it *internTable) (scanner.Observation, error) {
	d := decoder{b: b, intern: it}
	var o scanner.Observation
	o.At = d.time()
	o.Vantage = d.string()
	o.Responder = d.string()
	o.Domain = d.string()
	o.DomainWeight = int(d.varint())
	o.Serial = d.string()
	o.Latency = time.Duration(d.varint())
	o.Class = scanner.FailureClass(d.varint())
	o.HTTPStatus = int(d.varint())
	o.OCSPStatus = ocsp.ResponseStatus(d.varint())
	o.Attempts = int(d.varint())
	o.FinalClass = scanner.FailureClass(d.varint())
	o.Salvaged = d.bool()
	o.CertStatus = ocsp.CertStatus(d.varint())
	o.ProducedAt = d.time()
	o.ThisUpdate = d.time()
	o.NextUpdate = d.time()
	o.HasNextUpdate = d.bool()
	o.NumCerts = int(d.varint())
	o.NumSerials = int(d.varint())
	o.RevokedAt = d.time()
	o.Reason = pkixutil.ReasonCode(d.varint())
	o.CacheMaxAge = int(d.varint())
	if d.err != nil {
		return scanner.Observation{}, d.err
	}
	if d.off != len(d.b) {
		//lint:allow allocfree corrupt-record error path; the steady-state scan never reaches it
		return scanner.Observation{}, fmt.Errorf("store: %d trailing bytes after observation", len(d.b)-d.off)
	}
	return o, nil
}

// decodeRecordAt reads only the leading At field of a payload — enough
// for TruncateAfter to find a round boundary without a full decode.
func decodeRecordAt(b []byte) (int64, error) {
	d := decoder{b: b}
	t := d.time()
	if d.err != nil {
		return 0, d.err
	}
	return t.UnixNano(), nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendTime encodes a time as a presence byte plus varint UnixNano. The
// zero time.Time (year 1) is outside the UnixNano range, so it gets its
// own presence value and decodes back to exactly time.Time{}.
func appendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.AppendVarint(b, t.UnixNano())
}

// decoder is a cursor over an encoded payload. The first error sticks and
// turns every later read into a no-op, so call sites stay linear.
type decoder struct {
	b      []byte
	off    int
	err    error
	intern *internTable // nil: strings allocate per field
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: "+format, args...)
	}
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// string reads a length-prefixed string. With an intern table threaded
// (every scan), a previously seen value is a zero-allocation map probe;
// only one-shot decodes materialize a fresh string per call.
//
//lint:allocfree
func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string length %d exceeds remaining %d bytes", n, len(d.b)-d.off) //lint:allow allocfree corrupt-record error path; the steady-state scan never reaches it
		return ""
	}
	raw := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	if d.intern != nil {
		return d.intern.intern(raw) //lint:allow allocfree the inlined intern allocates on first sight only; the capped table amortizes it to zero across a scan
	}
	return string(raw) //lint:allow allocfree one-shot decode path (nil intern table); every scan threads the table and hits the zero-alloc probe
}

// rawByte reads one uninterpreted byte (the corpus record's flag field).
func (d *decoder) rawByte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("bad bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

func (d *decoder) time() time.Time {
	if d.err != nil {
		return time.Time{}
	}
	if d.off >= len(d.b) {
		d.fail("truncated time at offset %d", d.off)
		return time.Time{}
	}
	presence := d.b[d.off]
	d.off++
	switch presence {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(0, d.varint()).UTC()
	default:
		d.fail("bad time presence byte %d at offset %d", presence, d.off-1)
		return time.Time{}
	}
}
