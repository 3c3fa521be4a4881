package pkixutil

import (
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"time"
)

// The DER codec below is the non-reflective core of the OCSP codec (and
// of the deterministic ECDSA signature encoding). DERBuilder emits exactly
// the bytes asn1.Marshal emits for the same values; DERCursor accepts
// exactly the inputs asn1.Unmarshal accepts for the Go types it stands in
// for, quirks included, and decodes them to equal values. The OCSP
// package's differential tests and fuzz targets hold both to that
// contract against the reflective reference.

// Identifier octets of the universal types the codecs use.
const (
	TagBoolean         = 0x01
	TagInteger         = 0x02
	TagBitString       = 0x03
	TagOctetString     = 0x04
	TagOID             = 0x06
	TagEnumerated      = 0x0a
	TagUTCTime         = 0x17
	TagGeneralizedTime = 0x18
	TagSequence        = 0x30

	// TagAny matches any element, as an asn1.RawValue field does. It is
	// never a real identifier octet: its low five bits announce a
	// high-tag-number form, which the codecs never write.
	TagAny = 0xff
)

// DERBuilder appends DER to one buffer. A constructed element is opened
// with Begin and closed with End, which writes its length once, in minimal
// form; a length of 128 or more shifts the content right by the extra
// length octets. The first encoding error sticks and is returned by
// Bytes.
type DERBuilder struct {
	buf []byte
	err error
}

// NewDERBuilder returns a builder that appends to buf.
func NewDERBuilder(buf []byte) DERBuilder { return DERBuilder{buf: buf} }

// Bytes returns the encoding, or the first error met while building it.
func (b *DERBuilder) Bytes() ([]byte, error) { return b.buf, b.err }

// Begin opens a constructed element with identifier octet tag and returns
// the offset of its content, to pass to End.
func (b *DERBuilder) Begin(tag byte) int {
	b.buf = append(b.buf, tag, 0)
	return len(b.buf)
}

// End closes the element whose content starts at start and returns its
// whole encoding, which stays valid until the next write.
func (b *DERBuilder) End(start int) []byte {
	n := len(b.buf) - start
	if n < 0x80 {
		b.buf[start-1] = byte(n)
		return b.buf[start-2:]
	}
	k := lengthLength(n)
	b.buf = append(b.buf, make([]byte, k)...)
	copy(b.buf[start+k:], b.buf[start:start+n])
	b.buf[start-1] = 0x80 | byte(k)
	for i, m := k-1, n; i >= 0; i-- {
		b.buf[start+i] = byte(m)
		m >>= 8
	}
	return b.buf[start-2:]
}

// Raw appends already-encoded DER.
func (b *DERBuilder) Raw(der []byte) { b.buf = append(b.buf, der...) }

// Element appends a primitive element with identifier octet tag.
func (b *DERBuilder) Element(tag byte, content []byte) {
	b.header(tag, len(content))
	b.buf = append(b.buf, content...)
}

func (b *DERBuilder) header(tag byte, n int) {
	if n < 0x80 {
		b.buf = append(b.buf, tag, byte(n))
		return
	}
	k := lengthLength(n)
	b.buf = append(b.buf, tag, 0x80|byte(k))
	for i := k - 1; i >= 0; i-- {
		b.buf = append(b.buf, byte(n>>(8*i)))
	}
}

func lengthLength(n int) int {
	k := 1
	for n > 255 {
		k++
		n >>= 8
	}
	return k
}

// Int64 appends v as a minimal two's-complement INTEGER or ENUMERATED.
func (b *DERBuilder) Int64(tag byte, v int64) {
	n := 1
	for i := v; i > 127; i >>= 8 {
		n++
	}
	for i := v; i < -128; i >>= 8 {
		n++
	}
	b.buf = append(b.buf, tag, byte(n))
	for ; n > 0; n-- {
		b.buf = append(b.buf, byte(v>>uint((n-1)*8)))
	}
}

// BigInt appends n as an INTEGER.
func (b *DERBuilder) BigInt(n *big.Int) {
	switch {
	case n == nil:
		b.fail(errors.New("pkixutil: nil INTEGER"))
	case n.Sign() == 0:
		b.buf = append(b.buf, TagInteger, 1, 0)
	case n.Sign() > 0:
		// One more octet than the magnitude needs when its top bit is
		// set, so that it does not read as negative; FillBytes zeroes it.
		size := (n.BitLen() + 8) / 8
		b.header(TagInteger, size)
		b.buf = append(b.buf, make([]byte, size)...)
		n.FillBytes(b.buf[len(b.buf)-size:])
	default:
		// Two's complement of a negative n is the bitwise complement of
		// |n|-1, padded with 0xff when its top bit would read positive.
		m := new(big.Int).Neg(n)
		m.Sub(m, big.NewInt(1))
		mag := m.Bytes()
		for i := range mag {
			mag[i] ^= 0xff
		}
		if len(mag) == 0 || mag[0]&0x80 == 0 {
			b.header(TagInteger, len(mag)+1)
			b.buf = append(b.buf, 0xff)
		} else {
			b.header(TagInteger, len(mag))
		}
		b.buf = append(b.buf, mag...)
	}
}

// OID appends an OBJECT IDENTIFIER.
func (b *DERBuilder) OID(oid asn1.ObjectIdentifier) {
	if len(oid) < 2 || oid[0] > 2 || (oid[0] < 2 && oid[1] >= 40) {
		b.fail(fmt.Errorf("pkixutil: invalid object identifier %v", oid))
		return
	}
	n := base128Length(int64(oid[0]*40 + oid[1]))
	for _, v := range oid[2:] {
		n += base128Length(int64(v))
	}
	b.header(TagOID, n)
	b.appendBase128(int64(oid[0]*40 + oid[1]))
	for _, v := range oid[2:] {
		b.appendBase128(int64(v))
	}
}

func base128Length(n int64) int {
	if n == 0 {
		return 1
	}
	l := 0
	for i := n; i > 0; i >>= 7 {
		l++
	}
	return l
}

func (b *DERBuilder) appendBase128(n int64) {
	for i := base128Length(n) - 1; i >= 0; i-- {
		o := byte(n>>uint(i*7)) & 0x7f
		if i != 0 {
			o |= 0x80
		}
		b.buf = append(b.buf, o)
	}
}

// GeneralizedTime appends t, which must be in UTC, as a GeneralizedTime
// with whole seconds (YYYYMMDDHHMMSSZ).
func (b *DERBuilder) GeneralizedTime(t time.Time) {
	year := t.Year()
	if year < 0 || year > 9999 {
		b.fail(errors.New("pkixutil: cannot represent time as GeneralizedTime"))
		return
	}
	_, month, day := t.Date()
	hour, min, sec := t.Clock()
	b.buf = append(b.buf, TagGeneralizedTime, 15)
	b.twoDigits(year / 100)
	b.twoDigits(year % 100)
	b.twoDigits(int(month))
	b.twoDigits(day)
	b.twoDigits(hour)
	b.twoDigits(min)
	b.twoDigits(sec)
	b.buf = append(b.buf, 'Z')
}

func (b *DERBuilder) twoDigits(v int) {
	b.buf = append(b.buf, byte('0'+v/10), byte('0'+v%10))
}

// BitString appends a BIT STRING of whole octets.
func (b *DERBuilder) BitString(v []byte) {
	b.header(TagBitString, len(v)+1)
	b.buf = append(b.buf, 0)
	b.buf = append(b.buf, v...)
}

// AlgorithmIdentifier appends a SEQUENCE { algorithm, parameters }, with
// the parameters omitted when they are the zero RawValue.
func (b *DERBuilder) AlgorithmIdentifier(a AlgorithmIdentifier) {
	start := b.Begin(TagSequence)
	b.OID(a.Algorithm)
	p := a.Parameters
	switch {
	case len(p.FullBytes) != 0:
		b.Raw(p.FullBytes)
	case p.Class != 0 || p.Tag != 0 || p.IsCompound || p.Bytes != nil || p.FullBytes != nil:
		if p.Tag >= 31 {
			b.fail(fmt.Errorf("pkixutil: unsupported parameters tag %d", p.Tag))
			break
		}
		id := byte(p.Class<<6) | byte(p.Tag)
		if p.IsCompound {
			id |= 0x20
		}
		b.Element(id, p.Bytes)
	}
	b.End(start)
}

func (b *DERBuilder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// derHeader is a parsed identifier and length.
type derHeader struct {
	class    int
	compound bool
	tag      int
	length   int
}

// is reports whether h carries identifier octet id (a low-tag-number
// form). TagAny matches everything.
func (h derHeader) is(id byte) bool {
	if id == TagAny {
		return true
	}
	return h.class == int(id>>6) && h.compound == (id&0x20 != 0) && h.tag == int(id&0x1f)
}

// parseHeader reads the identifier and length at the start of b with the
// rules of asn1's parseTagAndLength and returns the header size. It does
// not check that the content fits in b.
func parseHeader(b []byte) (h derHeader, n int, ok bool) {
	if len(b) == 0 {
		return h, 0, false
	}
	h.class = int(b[0] >> 6)
	h.compound = b[0]&0x20 != 0
	h.tag = int(b[0] & 0x1f)
	n = 1
	if h.tag == 0x1f {
		var ok bool
		h.tag, n, ok = parseBase128(b, n)
		if !ok || h.tag < 0x1f {
			return h, 0, false
		}
	}
	if n >= len(b) {
		return h, 0, false
	}
	l := b[n]
	n++
	if l&0x80 == 0 {
		h.length = int(l)
		return h, n, true
	}
	k := int(l & 0x7f)
	if k == 0 {
		return h, 0, false // indefinite length
	}
	for i := 0; i < k; i++ {
		if n >= len(b) || h.length >= 1<<23 {
			return h, 0, false
		}
		h.length = h.length<<8 | int(b[n])
		n++
		if h.length == 0 {
			return h, 0, false // leading zero octet
		}
	}
	if h.length < 0x80 {
		return h, 0, false // long form for a short length
	}
	return h, n, true
}

// parseBase128 reads one base-128 integer of at most 31 bits starting at
// b[off], rejecting a non-minimal leading octet.
func parseBase128(b []byte, off int) (v, next int, ok bool) {
	var r int64
	for shifted := 0; off < len(b); shifted++ {
		if shifted == 5 {
			return 0, 0, false
		}
		c := b[off]
		if shifted == 0 && c == 0x80 {
			return 0, 0, false
		}
		r = r<<7 | int64(c&0x7f)
		off++
		if c&0x80 == 0 {
			if r > 1<<31-1 {
				return 0, 0, false
			}
			return int(r), off, true
		}
	}
	return 0, 0, false
}

// DERCursor reads the elements inside one DER value in order, the way
// asn1.Unmarshal walks the fields of a struct: a missing or mismatched
// optional element reads as absent without being consumed, anything left
// after the last read is ignored, and any malformation marks the cursor
// failed. Once failed, every read returns zero values; check Failed after
// the last read.
type DERCursor struct {
	rest   []byte
	failed bool
}

// NewDERCursor returns a cursor over b.
func NewDERCursor(b []byte) DERCursor { return DERCursor{rest: b} }

// Failed reports whether any read so far met malformed input.
func (c *DERCursor) Failed() bool { return c.failed }

// Empty reports whether every byte has been consumed.
func (c *DERCursor) Empty() bool { return len(c.rest) == 0 }

func (c *DERCursor) fail() { c.failed, c.rest = true, nil }

// next reads the element matching id (or alt, when non-zero). A missing
// or mismatched element is absent when optional and a failure otherwise.
func (c *DERCursor) next(id, alt byte, optional bool) (h derHeader, full, content []byte, present bool) {
	if c.failed {
		return
	}
	if len(c.rest) == 0 {
		if !optional {
			c.fail()
		}
		return
	}
	h, n, ok := parseHeader(c.rest)
	if !ok {
		c.fail()
		return
	}
	if !h.is(id) && (alt == 0 || !h.is(alt)) {
		if !optional {
			c.fail()
		}
		return
	}
	if h.length > len(c.rest)-n {
		c.fail()
		return
	}
	full, content = c.rest[:n+h.length], c.rest[n:n+h.length]
	c.rest = c.rest[n+h.length:]
	return h, full, content, true
}

// Read returns the content of the next element, which must carry
// identifier octet id.
func (c *DERCursor) Read(id byte) []byte {
	_, _, content, _ := c.next(id, 0, false)
	return content
}

// ReadAny returns the next element whatever its identifier, as a
// RawValue field reads it: the whole encoding, its content, and its tag
// number and class.
func (c *DERCursor) ReadAny() (full, content []byte, class, tag int) {
	h, full, content, _ := c.next(TagAny, 0, false)
	return full, content, h.class, h.tag
}

// SkipOptionalAny consumes the next element, if any, whatever its
// identifier.
func (c *DERCursor) SkipOptionalAny() { c.next(TagAny, 0, true) }

// ReadExplicit returns the content of the element carrying identifier
// octet id inside an optional explicit context tag [n]. The rules are
// asn1's: the wrapper's own length is only checked for being zero (an
// error) or non-zero, the inner element is bounded by the enclosing value
// rather than by the wrapper, and reading resumes right after the inner
// element. A wrapper whose header ends the enclosing value is an error
// even when its tag does not match. With id TagAny the wrapper itself is
// the value, as for an explicitly tagged RawValue.
func (c *DERCursor) ReadExplicit(n int, id byte) ([]byte, bool) {
	_, content, ok := c.explicit(n, id, 0)
	return content, ok
}

func (c *DERCursor) explicit(n int, id, alt byte) (inner derHeader, content []byte, present bool) {
	if c.failed || len(c.rest) == 0 {
		return
	}
	w, wn, ok := parseHeader(c.rest)
	if !ok || wn == len(c.rest) {
		c.fail()
		return
	}
	if w.class != 2 || w.tag != n || (w.length != 0 && !w.compound) {
		return
	}
	if id == TagAny {
		if w.length > len(c.rest)-wn {
			c.fail()
			return
		}
		content = c.rest[wn : wn+w.length]
		c.rest = c.rest[wn+w.length:]
		return w, content, true
	}
	if w.length == 0 {
		c.fail()
		return
	}
	inner, in, ok := parseHeader(c.rest[wn:])
	if !ok {
		c.fail()
		return
	}
	if !inner.is(id) && (alt == 0 || !inner.is(alt)) {
		return inner, nil, false
	}
	off := wn + in
	if inner.length > len(c.rest)-off {
		c.fail()
		return
	}
	content = c.rest[off : off+inner.length]
	c.rest = c.rest[off+inner.length:]
	return inner, content, true
}

// ReadOID returns the content of the next OBJECT IDENTIFIER, checked to
// be well formed.
func (c *DERCursor) ReadOID() []byte {
	v := c.Read(TagOID)
	if !c.failed && !validOID(v) {
		c.fail()
	}
	return v
}

// ReadInt returns the next INTEGER or ENUMERATED (by id) as an int of
// the given bit size, 32 or 64.
func (c *DERCursor) ReadInt(id byte, bits int) int64 {
	v, ok := parseInt(c.Read(id), bits)
	if !ok {
		c.fail()
	}
	return v
}

// ReadExplicitInt reads an optional explicitly tagged INTEGER or
// ENUMERATED, returning def when it is absent.
func (c *DERCursor) ReadExplicitInt(n int, id byte, bits int, def int64) int64 {
	content, ok := c.ReadExplicit(n, id)
	if !ok {
		return def
	}
	v, ok := parseInt(content, bits)
	if !ok {
		c.fail()
	}
	return v
}

// ReadBigInt returns the next INTEGER as a big.Int.
func (c *DERCursor) ReadBigInt() *big.Int {
	content := c.Read(TagInteger)
	if c.failed {
		return nil
	}
	if !checkInteger(content) {
		c.fail()
		return nil
	}
	n := new(big.Int)
	if content[0]&0x80 == 0 {
		return n.SetBytes(content)
	}
	not := make([]byte, len(content))
	for i := range not {
		not[i] = ^content[i]
	}
	n.SetBytes(not)
	n.Add(n, big.NewInt(1))
	return n.Neg(n)
}

// SkipOptionalBool consumes an optional BOOLEAN, checking its encoding.
func (c *DERCursor) SkipOptionalBool() {
	_, _, v, ok := c.next(TagBoolean, 0, true)
	if ok && (len(v) != 1 || (v[0] != 0 && v[0] != 0xff)) {
		c.fail()
	}
}

// ReadBitString returns the next BIT STRING.
func (c *DERCursor) ReadBitString() asn1.BitString {
	v := c.Read(TagBitString)
	if c.failed {
		return asn1.BitString{}
	}
	if len(v) == 0 {
		c.fail()
		return asn1.BitString{}
	}
	pad := int(v[0])
	if pad > 7 || len(v) == 1 && pad > 0 || v[len(v)-1]&((1<<pad)-1) != 0 {
		c.fail()
		return asn1.BitString{}
	}
	return asn1.BitString{Bytes: v[1:], BitLength: (len(v)-1)*8 - pad}
}

// ReadTime returns the next UTCTime or GeneralizedTime, the two forms a
// time.Time field accepts.
func (c *DERCursor) ReadTime() time.Time {
	h, _, content, _ := c.next(TagGeneralizedTime, TagUTCTime, false)
	return c.decodeTime(h, content)
}

// ReadExplicitTime reads an optional explicitly tagged time, returning
// the zero time when it is absent.
func (c *DERCursor) ReadExplicitTime(n int) time.Time {
	h, content, ok := c.explicit(n, TagGeneralizedTime, TagUTCTime)
	if !ok {
		return time.Time{}
	}
	return c.decodeTime(h, content)
}

func (c *DERCursor) decodeTime(h derHeader, content []byte) time.Time {
	if c.failed {
		return time.Time{}
	}
	var t time.Time
	var ok bool
	if h.tag == TagUTCTime {
		t, ok = parseUTCTime(content)
	} else {
		t, ok = parseGeneralizedTime(content)
	}
	if !ok {
		c.fail()
	}
	return t
}

// checkInteger reports whether b is a minimal two's-complement INTEGER.
func checkInteger(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	if len(b) == 1 {
		return true
	}
	return !(b[0] == 0 && b[1]&0x80 == 0) && !(b[0] == 0xff && b[1]&0x80 == 0x80)
}

func parseInt(b []byte, bits int) (int64, bool) {
	if !checkInteger(b) || len(b) > 8 {
		return 0, false
	}
	var v int64
	for _, o := range b {
		v = v<<8 | int64(o)
	}
	shift := 64 - uint(len(b))*8
	v = v << shift >> shift
	if bits == 32 && v != int64(int32(v)) {
		return 0, false
	}
	return v, true
}

// validOID reports whether b is an OBJECT IDENTIFIER asn1 would decode.
func validOID(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for off := 0; off < len(b); {
		var ok bool
		if _, off, ok = parseBase128(b, off); !ok {
			return false
		}
	}
	return true
}

// parseOID decodes the content of an OBJECT IDENTIFIER read by ReadOID.
func parseOID(b []byte) asn1.ObjectIdentifier {
	v, off, _ := parseBase128(b, 0)
	oid := make(asn1.ObjectIdentifier, 2, len(b)+1)
	if v < 80 {
		oid[0], oid[1] = v/40, v%40
	} else {
		oid[0], oid[1] = 2, v-80
	}
	for off < len(b) {
		v, off, _ = parseBase128(b, off)
		oid = append(oid, v)
	}
	return oid
}

// parseGeneralizedTime decodes GeneralizedTime content as asn1 does. The
// common shape, YYYYMMDDHHMMSSZ, is decoded by hand; anything else takes
// asn1's own route through time.Parse and a round-trip check.
func parseGeneralizedTime(b []byte) (time.Time, bool) {
	if len(b) == 15 && b[14] == 'Z' {
		var d [14]int
		for i := range d {
			if b[i] < '0' || b[i] > '9' {
				goto slow
			}
			d[i] = int(b[i] - '0')
		}
		year := d[0]*1000 + d[1]*100 + d[2]*10 + d[3]
		month := d[4]*10 + d[5]
		day := d[6]*10 + d[7]
		hour := d[8]*10 + d[9]
		min := d[10]*10 + d[11]
		sec := d[12]*10 + d[13]
		if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
			hour > 23 || min > 59 || sec > 59 {
			return time.Time{}, false
		}
		return time.Date(year, time.Month(month), day, hour, min, sec, 0, time.UTC), true
	}
slow:
	const layout = "20060102150405.999999999Z0700"
	s := string(b)
	t, err := time.Parse(layout, s)
	if err != nil || t.Format(layout) != s {
		return time.Time{}, false
	}
	return t, true
}

func daysIn(month, year int) int {
	if month == 2 {
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	if month == 4 || month == 6 || month == 9 || month == 11 {
		return 30
	}
	return 31
}

// parseUTCTime decodes UTCTime content as asn1 does, two-digit years
// from 50 on falling in the twentieth century.
func parseUTCTime(b []byte) (time.Time, bool) {
	s := string(b)
	layout := "0601021504Z0700"
	t, err := time.Parse(layout, s)
	if err != nil {
		layout = "060102150405Z0700"
		t, err = time.Parse(layout, s)
	}
	if err != nil || t.Format(layout) != s {
		return time.Time{}, false
	}
	if t.Year() >= 2050 {
		t = t.AddDate(-100, 0, 0)
	}
	return t, true
}
