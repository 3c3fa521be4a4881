package ocsp

import (
	"bytes"
	"crypto"
	"errors"
	"fmt"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// The fixed-shape DER of the OCSP structures (RFC 6960 §4), written with
// pkixutil.DERBuilder and read with pkixutil.DERCursor. The shapes are the
// ones this package's reflective encoding/asn1 structures used to
// describe; the reference implementation in reference_test.go keeps them,
// and the differential tests and fuzz targets hold this code to the same
// bytes out and the same accept/reject verdicts and values in.

const (
	tagSequence    = pkixutil.TagSequence
	tagOctetString = pkixutil.TagOctetString
	tagEnumerated  = pkixutil.TagEnumerated
	tagInteger     = pkixutil.TagInteger
	tagAny         = pkixutil.TagAny

	// Context-specific identifier octets: constructed [n] is 0xa0|n,
	// primitive [n] is 0x80|n.
	tagExplicit0 = 0xa0
	tagExplicit1 = 0xa1
	tagExplicit2 = 0xa2
	tagGood      = 0x80
	tagUnknown   = 0x82
)

// certIDHash is one CertID hash algorithm with its encodings precomputed:
// the OBJECT IDENTIFIER content a parser matches, and the whole
// AlgorithmIdentifier (with its explicit NULL) an encoder copies.
type certIDHash struct {
	hash crypto.Hash
	oid  []byte
	alg  []byte
}

var certIDHashes = func() []certIDHash {
	var out []certIDHash
	for _, h := range []crypto.Hash{crypto.SHA1, crypto.SHA256, crypto.SHA384, crypto.SHA512} {
		a, err := pkixutil.HashAlgorithmIdentifier(h)
		if err != nil {
			panic(err)
		}
		alg := pkixutil.NewDERBuilder(nil)
		alg.AlgorithmIdentifier(a)
		out = append(out, certIDHash{hash: h, oid: encodeOID(a.Algorithm)[2:], alg: mustBytes(&alg)})
	}
	return out
}()

var (
	oidOCSPBasicDER = encodeOID(pkixutil.OIDOCSPBasic)
	oidOCSPNonceDER = encodeOID(pkixutil.OIDOCSPNonce)
)

func encodeOID(oid []int) []byte {
	b := pkixutil.NewDERBuilder(nil)
	b.OID(oid)
	return mustBytes(&b)
}

// mustBytes returns the bytes of an encoding fixed at package
// initialization, where an error is a programming mistake.
func mustBytes(b *pkixutil.DERBuilder) []byte {
	der, err := b.Bytes()
	if err != nil {
		panic(err)
	}
	return der
}

// appendCertID writes a CertID SEQUENCE.
func appendCertID(b *pkixutil.DERBuilder, id *CertID) error {
	var alg []byte
	for i := range certIDHashes {
		if certIDHashes[i].hash == id.HashAlgorithm {
			alg = certIDHashes[i].alg
			break
		}
	}
	if alg == nil {
		return fmt.Errorf("ocsp: unsupported CertID hash %v", id.HashAlgorithm)
	}
	if id.Serial == nil {
		return errors.New("ocsp: CertID has nil serial")
	}
	s := b.Begin(tagSequence)
	b.Raw(alg)
	b.Element(tagOctetString, id.IssuerNameHash)
	b.Element(tagOctetString, id.IssuerKeyHash)
	b.BigInt(id.Serial)
	b.End(s)
	return nil
}

// readCertID reads a CertID SEQUENCE. Its hashes alias the input.
func readCertID(c *pkixutil.DERCursor) (CertID, error) {
	in := pkixutil.NewDERCursor(c.Read(tagSequence))
	alg := pkixutil.NewDERCursor(in.Read(tagSequence))
	oid := alg.ReadOID()
	alg.SkipOptionalAny()
	id := CertID{
		IssuerNameHash: in.Read(tagOctetString),
		IssuerKeyHash:  in.Read(tagOctetString),
		Serial:         in.ReadBigInt(),
	}
	if c.Failed() || in.Failed() || alg.Failed() {
		return CertID{}, errMalformed("CertID")
	}
	for i := range certIDHashes {
		if bytes.Equal(certIDHashes[i].oid, oid) {
			id.HashAlgorithm = certIDHashes[i].hash
			return id, nil
		}
	}
	return CertID{}, errors.New("ocsp: CertID hash: unknown hash OID")
}

// appendNonceExtension writes the [tag] EXPLICIT Extensions holding the
// one nonce extension (non-critical, so the BOOLEAN is omitted).
func appendNonceExtension(b *pkixutil.DERBuilder, tag byte, nonce []byte) {
	w := b.Begin(tag)
	list := b.Begin(tagSequence)
	ext := b.Begin(tagSequence)
	b.Raw(oidOCSPNonceDER)
	v := b.Begin(tagOctetString)
	b.Element(tagOctetString, nonce)
	b.End(v)
	b.End(ext)
	b.End(list)
	b.End(w)
}

// readExtensions checks an Extensions SEQUENCE OF content and returns the
// first nonce extension's value, if any.
func readExtensions(content []byte) (nonceValue []byte, found bool, err error) {
	list := pkixutil.NewDERCursor(content)
	for !list.Empty() {
		ext := pkixutil.NewDERCursor(list.Read(tagSequence))
		id := ext.ReadOID()
		ext.SkipOptionalBool()
		v := ext.Read(tagOctetString)
		if list.Failed() || ext.Failed() {
			return nil, false, errMalformed("extensions")
		}
		if !found && bytes.Equal(id, oidOCSPNonceDER[2:]) {
			nonceValue, found = v, true
		}
	}
	return nonceValue, found, nil
}

// decodeNonce unwraps the nonce extension value's OCTET STRING. Some
// clients put the raw nonce bytes in the value without the wrapper;
// those are taken as they are.
func decodeNonce(v []byte) []byte {
	c := pkixutil.NewDERCursor(v)
	if inner := c.Read(tagOctetString); !c.Failed() {
		return inner
	}
	return v
}

// appendSingle writes a SingleResponse SEQUENCE.
func appendSingle(b *pkixutil.DERBuilder, s *SingleResponse) error {
	start := b.Begin(tagSequence)
	if err := appendCertID(b, &s.CertID); err != nil {
		return err
	}
	switch s.Status {
	case Good:
		b.Element(tagGood, nil)
	case Unknown:
		b.Element(tagUnknown, nil)
	case Revoked:
		// revokedInfo is implicitly tagged [1]; a ReasonAbsent reason is
		// omitted, as revocations without a reason code carry none.
		ri := b.Begin(tagExplicit1)
		b.GeneralizedTime(s.RevokedAt.UTC().Truncate(time.Second))
		if s.Reason != pkixutil.ReasonAbsent {
			r := b.Begin(tagExplicit0)
			b.Int64(tagEnumerated, int64(s.Reason))
			b.End(r)
		}
		b.End(ri)
	default:
		return fmt.Errorf("ocsp: unsupported cert status %v", s.Status)
	}
	b.GeneralizedTime(s.ThisUpdate.UTC().Truncate(time.Second))
	// A nextUpdate that truncates to the zero time is omitted, like a
	// blank one.
	if next := s.NextUpdate.UTC().Truncate(time.Second); !next.IsZero() {
		n := b.Begin(tagExplicit0)
		b.GeneralizedTime(next)
		b.End(n)
	}
	b.End(start)
	return nil
}

// readSingle reads a SingleResponse SEQUENCE.
func readSingle(c *pkixutil.DERCursor) (SingleResponse, error) {
	in := pkixutil.NewDERCursor(c.Read(tagSequence))
	id, err := readCertID(&in)
	if err != nil {
		return SingleResponse{}, err
	}
	_, status, class, tag := in.ReadAny()
	s := SingleResponse{
		CertID:     id,
		ThisUpdate: in.ReadTime(),
		NextUpdate: in.ReadExplicitTime(0),
		Reason:     pkixutil.ReasonAbsent,
	}
	if exts, ok := in.ReadExplicit(1, tagSequence); ok {
		if _, _, err := readExtensions(exts); err != nil {
			return SingleResponse{}, err
		}
	}
	if c.Failed() || in.Failed() {
		return SingleResponse{}, errMalformed("single response")
	}
	if class != 2 {
		return SingleResponse{}, fmt.Errorf("ocsp: certStatus has class %d", class)
	}
	switch tag {
	case 0:
		s.Status = Good
	case 2:
		s.Status = Unknown
	case 1:
		s.Status = Revoked
		ri := pkixutil.NewDERCursor(status)
		s.RevokedAt = ri.ReadTime()
		s.Reason = pkixutil.ReasonCode(ri.ReadExplicitInt(0, tagEnumerated, 32, int64(pkixutil.ReasonAbsent)))
		if ri.Failed() {
			return SingleResponse{}, errMalformed("revokedInfo")
		}
	default:
		return SingleResponse{}, fmt.Errorf("ocsp: certStatus has tag %d", tag)
	}
	return s, nil
}

func errMalformed(what string) error { return fmt.Errorf("ocsp: malformed %s", what) }

// buildPooled runs build over a pooled builder and returns an exact-size
// copy of what it wrote.
func buildPooled(build func(*pkixutil.DERBuilder) error) ([]byte, error) {
	b := pkixutil.GetDERBuilder()
	defer pkixutil.PutDERBuilder(b)
	if err := build(b); err != nil {
		return nil, err
	}
	der, err := b.Bytes()
	if err != nil {
		return nil, err
	}
	return bytes.Clone(der), nil
}
