package pkixutil

import (
	"bytes"
	"encoding/asn1"
	"encoding/hex"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// The DER primitives are checked one by one against encoding/asn1, the
// behaviour they reproduce; the OCSP package checks the structures built
// from them the same way.

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	der, err := asn1.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

func TestDERBuilderMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))

	for _, n := range []int{0, 1, 127, 128, 255, 256, 65535, 65536, 70000} {
		v := make([]byte, n)
		rng.Read(v)
		b := NewDERBuilder(nil)
		b.Element(TagOctetString, v)
		if got, _ := b.Bytes(); !bytes.Equal(got, marshal(t, v)) {
			t.Fatalf("OCTET STRING of %d bytes differs", n)
		}
		// The same content through Begin/End, which shifts it for long
		// lengths.
		b = NewDERBuilder([]byte{0xee})
		s := b.Begin(TagSequence)
		b.Raw(v)
		b.End(s)
		want := marshal(t, asn1.RawValue{Tag: asn1.TagSequence, IsCompound: true, Bytes: v})
		if got, _ := b.Bytes(); !bytes.Equal(got[1:], want) || got[0] != 0xee {
			t.Fatalf("SEQUENCE of %d bytes differs", n)
		}
	}

	for _, v := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1<<31 - 1, -1 << 31, 1<<63 - 1, -1 << 63} {
		b := NewDERBuilder(nil)
		b.Int64(TagInteger, v)
		if got, _ := b.Bytes(); !bytes.Equal(got, marshal(t, v)) {
			t.Errorf("INTEGER %d: %x vs %x", v, got, marshal(t, v))
		}
	}

	for i := 0; i < 2000; i++ {
		mag := make([]byte, rng.Intn(40))
		rng.Read(mag)
		n := new(big.Int).SetBytes(mag)
		if rng.Intn(2) == 0 {
			n.Neg(n)
		}
		if rng.Intn(10) == 0 {
			n.Lsh(big.NewInt(1), uint(rng.Intn(300)))
			n.Sub(n, big.NewInt(int64(rng.Intn(3))))
		}
		b := NewDERBuilder(nil)
		b.BigInt(n)
		if got, _ := b.Bytes(); !bytes.Equal(got, marshal(t, n)) {
			t.Fatalf("INTEGER %v: %x vs %x", n, got, marshal(t, n))
		}
	}

	for _, oid := range []asn1.ObjectIdentifier{OIDSHA1, OIDSHA256, OIDOCSPBasic, OIDOCSPNonce, OIDSignatureECDSAWithSHA256, {2, 999, 1 << 30}, {0, 0}, {1, 39, 0, 128, 16384}} {
		b := NewDERBuilder(nil)
		b.OID(oid)
		got, err := b.Bytes()
		if err != nil || !bytes.Equal(got, marshal(t, oid)) {
			t.Errorf("OID %v: %x, %v", oid, got, err)
		}
		if p := parseOID(got[2:]); !p.Equal(oid) {
			t.Errorf("parseOID(%v) = %v", oid, p)
		}
	}
	for _, oid := range []asn1.ObjectIdentifier{{1}, {3, 1}, {1, 40}} {
		b := NewDERBuilder(nil)
		b.OID(oid)
		if _, err := b.Bytes(); err == nil {
			t.Errorf("OID %v encoded; asn1 refuses it", oid)
		}
	}

	for i := 0; i < 2000; i++ {
		tm := time.Date(rng.Intn(10000), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), 0, time.UTC)
		b := NewDERBuilder(nil)
		b.GeneralizedTime(tm)
		want, err := asn1.MarshalWithParams(tm, "generalized")
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := b.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("GeneralizedTime %v: %q vs %q", tm, got, want)
		}
	}
	b := NewDERBuilder(nil)
	b.GeneralizedTime(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC))
	if _, err := b.Bytes(); err == nil {
		t.Error("year 10000 encoded; asn1 refuses it")
	}

	for _, a := range []AlgorithmIdentifier{
		{Algorithm: OIDSignatureECDSAWithSHA256},
		{Algorithm: OIDSignatureSHA256WithRSA, Parameters: asn1NULL},
		{Algorithm: OIDSHA1, Parameters: asn1.RawValue{FullBytes: []byte{0x04, 0x01, 0x07}}},
		{Algorithm: OIDSHA1, Parameters: asn1.RawValue{Class: 2, Tag: 3, IsCompound: true, Bytes: []byte{5, 0}}},
	} {
		b := NewDERBuilder(nil)
		b.AlgorithmIdentifier(a)
		if got, _ := b.Bytes(); !bytes.Equal(got, marshal(t, a)) {
			t.Errorf("AlgorithmIdentifier %v: %x vs %x", a, got, marshal(t, a))
		}
	}

	sig := []byte{0x80, 0, 0xff}
	b = NewDERBuilder(nil)
	b.BitString(sig)
	if got, _ := b.Bytes(); !bytes.Equal(got, marshal(t, asn1.BitString{Bytes: sig, BitLength: 24})) {
		t.Errorf("BIT STRING differs: %x", got)
	}
}

// timeContent draws GeneralizedTime and UTCTime contents near the valid
// shapes: fractions, offsets, out-of-range fields and stray characters.
func timeContent(rng *rand.Rand, utc bool) []byte {
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	two := func(max int) string { v := rng.Intn(max); return string([]byte{byte('0' + v/10), byte('0' + v%10)}) }
	var s string
	if utc {
		s = two(100)
	} else {
		s = digits(4)
	}
	s += two(14) + two(33) + two(26) + two(62)
	if rng.Intn(4) != 0 {
		s += two(62)
	}
	if !utc && rng.Intn(5) == 0 {
		s += "." + digits(rng.Intn(4))
	}
	switch rng.Intn(6) {
	case 0:
		s += []string{"+", "-"}[rng.Intn(2)] + two(30) + two(70)
	case 1:
		s += []string{"", "z", "+0000", "Z0", "ZZ", " "}[rng.Intn(6)]
	default:
		s += "Z"
	}
	b := []byte(s)
	if rng.Intn(20) == 0 {
		b[rng.Intn(len(b))] = byte(rng.Intn(256))
	}
	return b
}

func TestDERCursorTimesMatchUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	accepted := 0
	for i := 0; i < 20000; i++ {
		utc := i%4 == 0
		tag := byte(TagGeneralizedTime)
		if utc {
			tag = TagUTCTime
		}
		b := NewDERBuilder(nil)
		b.Element(tag, timeContent(rng, utc))
		der, _ := b.Bytes()

		var want time.Time
		_, wantErr := asn1.Unmarshal(der, &want)
		c := NewDERCursor(der)
		got := c.ReadTime()
		if c.Failed() != (wantErr != nil) {
			t.Fatalf("%q: cursor failed=%v, asn1 error %v", der[2:], c.Failed(), wantErr)
		}
		if wantErr == nil {
			accepted++
			gn, go_ := got.Zone()
			wn, wo := want.Zone()
			if !got.Equal(want) || gn != wn || go_ != wo {
				t.Fatalf("%q: cursor %v, asn1 %v", der[2:], got, want)
			}
		}
	}
	if accepted < 2000 {
		t.Fatalf("only %d of the drawn times were valid; the draw no longer exercises acceptance", accepted)
	}
}

func TestDERCursorPrimitivesMatchUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		content := make([]byte, rng.Intn(12))
		rng.Read(content)
		if len(content) > 1 && rng.Intn(2) == 0 {
			content[0] = []byte{0, 0xff}[rng.Intn(2)]
		}

		b := NewDERBuilder(nil)
		b.Element(TagInteger, content)
		der, _ := b.Bytes()
		var wantBig *big.Int
		_, bigErr := asn1.Unmarshal(der, &wantBig)
		c := NewDERCursor(der)
		gotBig := c.ReadBigInt()
		if c.Failed() != (bigErr != nil) || (bigErr == nil && gotBig.Cmp(wantBig) != 0) {
			t.Fatalf("INTEGER %x: cursor %v (failed %v), asn1 %v (%v)", content, gotBig, c.Failed(), wantBig, bigErr)
		}
		var want64 int64
		_, err64 := asn1.Unmarshal(der, &want64)
		c = NewDERCursor(der)
		if got := c.ReadInt(TagInteger, 64); c.Failed() != (err64 != nil) || got != want64 {
			t.Fatalf("int64 %x: cursor %d (failed %v), asn1 %d (%v)", content, got, c.Failed(), want64, err64)
		}

		b = NewDERBuilder(nil)
		b.Element(TagEnumerated, content)
		der, _ = b.Bytes()
		var wantEnum asn1.Enumerated
		_, errEnum := asn1.Unmarshal(der, &wantEnum)
		c = NewDERCursor(der)
		if got := c.ReadInt(TagEnumerated, 32); c.Failed() != (errEnum != nil) || got != int64(wantEnum) {
			t.Fatalf("ENUMERATED %x: cursor %d (failed %v), asn1 %d (%v)", content, got, c.Failed(), wantEnum, errEnum)
		}

		b = NewDERBuilder(nil)
		b.Element(TagOID, content)
		der, _ = b.Bytes()
		var wantOID asn1.ObjectIdentifier
		_, errOID := asn1.Unmarshal(der, &wantOID)
		c = NewDERCursor(der)
		gotOID := c.ReadOID()
		if c.Failed() != (errOID != nil) || (errOID == nil && !parseOID(gotOID).Equal(wantOID)) {
			t.Fatalf("OID %x: cursor failed %v, asn1 %v (%v)", content, c.Failed(), wantOID, errOID)
		}

		b = NewDERBuilder(nil)
		b.Element(TagBitString, content)
		der, _ = b.Bytes()
		var wantBits asn1.BitString
		_, errBits := asn1.Unmarshal(der, &wantBits)
		c = NewDERCursor(der)
		gotBits := c.ReadBitString()
		if c.Failed() != (errBits != nil) || gotBits.BitLength != wantBits.BitLength || !bytes.Equal(gotBits.RightAlign(), wantBits.RightAlign()) {
			t.Fatalf("BIT STRING %x: cursor %v (failed %v), asn1 %v (%v)", content, gotBits, c.Failed(), wantBits, errBits)
		}
	}
}

// TestDERCursorHeadersMatchUnmarshal drives the identifier and length
// rules — high tag numbers, long and non-minimal lengths, truncation —
// through a RawValue read, the most permissive element asn1 decodes.
func TestDERCursorHeadersMatchUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50000; i++ {
		der := make([]byte, 1+rng.Intn(8))
		rng.Read(der)
		if rng.Intn(2) == 0 {
			der[0] |= 0x1f
		}
		if len(der) > 1 && rng.Intn(2) == 0 {
			der[1] = 0x80 | byte(rng.Intn(5))
		}
		var want asn1.RawValue
		rest, wantErr := asn1.Unmarshal(der, &want)
		c := NewDERCursor(der)
		full, content, class, tag := c.ReadAny()
		if c.Failed() != (wantErr != nil) {
			t.Fatalf("%x: cursor failed=%v, asn1 error %v", der, c.Failed(), wantErr)
		}
		if wantErr == nil && (!bytes.Equal(full, want.FullBytes) || !bytes.Equal(content, want.Bytes) ||
			class != want.Class || tag != want.Tag || len(c.rest) != len(rest)) {
			t.Fatalf("%x: cursor (%x, %d, %d), asn1 %+v", der, full, class, tag, want)
		}
	}
}

// quirkShape has one field of every kind the OCSP codec reads, tagged the
// way the OCSP structures tag theirs, so that asn1.Unmarshal can judge
// the cursor on encoding/asn1's quirks: explicit wrappers, optional and
// defaulted fields, trailing elements.
type quirkShape struct {
	Version int `asn1:"explicit,tag:0,default:0,optional"`
	Any     asn1.RawValue
	Flag    bool `asn1:"optional"`
	When    time.Time
	Next    time.Time       `asn1:"explicit,tag:0,optional"`
	Code    asn1.Enumerated `asn1:"explicit,tag:1,optional,default:-1"`
	Name    asn1.RawValue   `asn1:"explicit,tag:2,optional"`
	List    []asn1.RawValue `asn1:"explicit,tag:3,optional"`
}

// readQuirkShape reads a quirkShape with the cursor; Flag's value is not
// returned by SkipOptionalBool and so is not compared.
func readQuirkShape(der []byte) (q quirkShape, rest int, ok bool) {
	top := NewDERCursor(der)
	c := NewDERCursor(top.Read(TagSequence))
	q.Version = int(c.ReadExplicitInt(0, TagInteger, 64, 0))
	q.Any.FullBytes, q.Any.Bytes, q.Any.Class, q.Any.Tag = c.ReadAny()
	c.SkipOptionalBool()
	q.When = c.ReadTime()
	q.Next = c.ReadExplicitTime(0)
	q.Code = asn1.Enumerated(c.ReadExplicitInt(1, TagEnumerated, 32, -1))
	if v, ok := c.ReadExplicit(2, TagAny); ok {
		q.Name.Bytes = v
	}
	if v, ok := c.ReadExplicit(3, TagSequence); ok {
		list := NewDERCursor(v)
		for !list.Empty() {
			full, _, _, _ := list.ReadAny()
			q.List = append(q.List, asn1.RawValue{FullBytes: full})
		}
		if list.Failed() {
			return q, 0, false
		}
	}
	return q, len(top.rest), !top.Failed() && !c.Failed()
}

func TestDERCursorQuirksMatchUnmarshal(t *testing.T) {
	// e concatenates hex strings and, for the time fields, tagged text.
	e := func(parts ...string) []byte {
		var out []byte
		for _, p := range parts {
			switch {
			case strings.HasPrefix(p, "gt:"):
				out = append(out, TagGeneralizedTime, byte(len(p)-3))
				out = append(out, p[3:]...)
			case strings.HasPrefix(p, "ut:"):
				out = append(out, TagUTCTime, byte(len(p)-3))
				out = append(out, p[3:]...)
			default:
				v, err := hex.DecodeString(p)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v...)
			}
		}
		return out
	}
	// Each field's first two variants are well formed; the rest probe
	// one rule each.
	fields := [][][]byte{
		// Version: absent, valid, zero-length wrapper, wrong inner type,
		// primitive wrapper, wrapper shorter than its child, trailing
		// inside the wrapper, empty and non-minimal integers.
		{e(), e("a003020105"), e("a000"), e("a0030a0100"), e("800100"), e("a001020100"), e("a00402010005"), e("a0020200"), e("a00402020001")},
		// Any: plain, context, constructed, high tag numbers (valid and
		// non-minimal), long and non-minimal lengths.
		{e("0500"), e("0402aabb"), e("8100"), e("a1020500"), e("1f1f00"), e("1f810000"), e("1f1e00"), e("04810100"), e("0481", "80", strings.Repeat("ab", 128)), e("04817f", strings.Repeat("ab", 127)), e("0482000100")},
		// Flag: absent, true, false, non-canonical, empty, too long.
		{e(), e("0101ff"), e("010100"), e("010101"), e("0100"), e("0102ffff")},
		// When: both forms, a UTCTime year past 2050, a bad day,
		// fractions (minimal and not), offsets (and a zero one), no
		// seconds.
		{e("gt:20180501120000Z"), e("ut:180501120000Z"), e("ut:5005011200Z"), e("gt:20180230120000Z"), e("gt:20180501120000.5Z"), e("gt:20180501120000.50Z"), e("gt:20180501120000+0100"), e("gt:20180501120000+0000"), e("gt:2018050112Z")},
		// Next: absent, generalized, UTC, empty wrapper, non-time inner.
		{e(), e("a011", "gt:20180601000000Z"), e("a00f", "ut:180601000000Z"), e("a000"), e("a0020500")},
		// Code: absent, ENUMERATED, INTEGER (defaults), empty wrapper.
		{e(), e("a1030a0103"), e("a103020103"), e("a100"), e("a1030a01ff")},
		// Name: absent, with content, empty, primitive, longer wrapper.
		{e(), e("a2030401aa"), e("a200"), e("8201aa"), e("a2050401aa")},
		// List: absent, two elements, empty, truncated element, SET,
		// empty wrapper.
		{e(), e("a30630040500", "0500"), e("a3023000"), e("a30430020505"), e("a3023100"), e("a300")},
		// After the last field: nothing, or trailing elements.
		{e(), e("05000500"), e("0500"), e("a000"), e("00"), e("1f"), e("81"), e("a00105")},
	}
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for trial := 0; trial < 30000; trial++ {
		var content []byte
		for _, f := range fields {
			i := rng.Intn(len(f))
			if rng.Intn(2) == 0 {
				i = rng.Intn(2)
			}
			content = append(content, f[i]...)
		}
		b := NewDERBuilder(nil)
		b.Element(TagSequence, content)
		der, _ := b.Bytes()
		switch rng.Intn(4) {
		case 0:
			der[rng.Intn(len(der))] ^= byte(1 + rng.Intn(255))
		case 1:
			der = der[:rng.Intn(len(der))]
		}

		var want quirkShape
		rest, wantErr := asn1.Unmarshal(der, &want)
		got, gotRest, ok := readQuirkShape(der)
		if ok != (wantErr == nil) {
			t.Fatalf("%x: cursor ok=%v, asn1 error %v", der, ok, wantErr)
		}
		if !ok {
			continue
		}
		accepted++
		wn, wo := want.When.Zone()
		gn, gOff := got.When.Zone()
		same := got.Version == want.Version && bytes.Equal(got.Any.FullBytes, want.Any.FullBytes) &&
			bytes.Equal(got.Any.Bytes, want.Any.Bytes) && got.Any.Class == want.Any.Class && got.Any.Tag == want.Any.Tag &&
			got.When.Equal(want.When) && gn == wn && gOff == wo && got.Next.Equal(want.Next) &&
			got.Code == want.Code && bytes.Equal(got.Name.Bytes, want.Name.Bytes) &&
			len(got.List) == len(want.List) && gotRest == len(rest)
		for i := 0; same && i < len(got.List); i++ {
			same = bytes.Equal(got.List[i].FullBytes, want.List[i].FullBytes)
		}
		if !same {
			t.Fatalf("%x: cursor %+v (rest %d), asn1 %+v (rest %d)", der, got, gotRest, want, len(rest))
		}
	}
	if accepted < 1000 {
		t.Fatalf("only %d of the drawn shapes were accepted; the draw no longer exercises acceptance", accepted)
	}
}
