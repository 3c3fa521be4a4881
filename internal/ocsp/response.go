package ocsp

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// SingleResponse is the status assertion for one certificate inside an OCSP
// response (RFC 6960 §4.2.1).
type SingleResponse struct {
	CertID CertID
	Status CertStatus

	// RevokedAt and Reason are set when Status == Revoked. Reason is
	// pkixutil.ReasonAbsent when the responder included no reason code —
	// the overwhelmingly common case in the wild.
	RevokedAt time.Time
	Reason    pkixutil.ReasonCode

	// ThisUpdate is the time at which the status being indicated is
	// known to be correct; NextUpdate is when newer information will be
	// available. A zero NextUpdate means the responder left it blank
	// ("newer revocation information is always available"), which makes
	// the response technically valid forever — one of the quality
	// problems §5.4 of the paper studies (9.1% of responders).
	ThisUpdate time.Time
	NextUpdate time.Time
}

// HasNextUpdate reports whether the responder set a nextUpdate at all.
func (s *SingleResponse) HasNextUpdate() bool { return !s.NextUpdate.IsZero() }

// ValidAt reports whether the assertion is within its validity window at t.
// A blank nextUpdate never expires.
func (s *SingleResponse) ValidAt(t time.Time) bool {
	if t.Before(s.ThisUpdate) {
		return false
	}
	return s.NextUpdate.IsZero() || !t.After(s.NextUpdate)
}

// Response is a parsed OCSP response.
type Response struct {
	// Status is the outer OCSPResponseStatus. The remaining fields are
	// only meaningful when Status == StatusSuccessful.
	Status ResponseStatus

	// ProducedAt is when the responder generated (signed) this response.
	ProducedAt time.Time

	// Responses holds one SingleResponse per asserted certificate.
	// Responders may include unsolicited extras (Figure 7 of the paper).
	Responses []SingleResponse

	// Nonce echoes the request nonce, if the responder supports it.
	Nonce []byte

	// ResponderKeyHash or ResponderRawName identify the responder
	// (the byKey and byName arms of the ResponderID CHOICE).
	ResponderKeyHash []byte
	ResponderRawName []byte

	// Certificates are the certificates the responder chose to embed to
	// help signature validation. More than one is superfluous (Figure 6:
	// 14.5% of responders send extras; one sends a full chain of four
	// including the root).
	Certificates []*x509.Certificate

	// Signature material.
	SignatureAlgorithm asn1.ObjectIdentifier
	Signature          []byte

	// Raw is the full DER response; RawTBS is the DER of the signed
	// ResponseData.
	Raw    []byte
	RawTBS []byte
}

// ResponderTemplate describes the responder identity and signing setup used
// by CreateResponse.
type ResponderTemplate struct {
	// Signer signs the ResponseData. Required.
	Signer crypto.Signer

	// Certificate is the certificate whose key Signer holds. Its key
	// hash becomes the byKey ResponderID unless ByName is set. Required.
	Certificate *x509.Certificate

	// IncludeCertificates are embedded in the certs field of the
	// BasicOCSPResponse. Responders using signature-authority delegation
	// include their delegated responder certificate here; misbehaving
	// responders include whole chains (the "superfluous certificates"
	// behavior of §5.4).
	IncludeCertificates []*x509.Certificate

	// ByName selects the byName ResponderID arm instead of byKey.
	ByName bool

	// Rand is the randomness source for signing; nil means crypto/rand
	// via the signer's default.
	Rand io.Reader

	// The marshalled ResponderID CHOICE is invariant for a template, so
	// it is computed once and reused across every response the template
	// signs.
	ridOnce sync.Once
	rid     []byte
	ridErr  error
}

// responderID returns the memoized DER ResponderID: the byKey arm hashes
// the responder certificate's public key (or byName wraps its subject),
// which never changes over a template's lifetime.
func (t *ResponderTemplate) responderID() ([]byte, error) {
	t.ridOnce.Do(func() {
		b := pkixutil.NewDERBuilder(nil)
		if t.ByName {
			n := b.Begin(tagExplicit1)
			b.Raw(t.Certificate.RawSubject)
			b.End(n)
		} else {
			keyHash, err := pkixutil.IssuerKeyHash(t.Certificate, crypto.SHA1)
			if err != nil {
				t.ridErr = err
				return
			}
			k := b.Begin(tagExplicit2)
			b.Element(tagOctetString, keyHash)
			b.End(k)
		}
		t.rid, t.ridErr = b.Bytes()
	})
	return t.rid, t.ridErr
}

// CreateResponse builds and signs a successful BasicOCSPResponse asserting
// the given single responses, produced at producedAt, echoing nonce if
// non-empty.
func CreateResponse(tmpl *ResponderTemplate, producedAt time.Time, singles []SingleResponse, nonce []byte) ([]byte, error) {
	if tmpl == nil || tmpl.Signer == nil || tmpl.Certificate == nil {
		return nil, errors.New("ocsp: incomplete responder template")
	}
	if len(singles) == 0 {
		return nil, errors.New("ocsp: no single responses")
	}
	rid, err := tmpl.responderID()
	if err != nil {
		return nil, err
	}
	return buildPooled(func(b *pkixutil.DERBuilder) error {
		resp := b.Begin(tagSequence)
		b.Int64(tagEnumerated, int64(StatusSuccessful))
		wrap := b.Begin(tagExplicit0)
		rb := b.Begin(tagSequence)
		b.Raw(oidOCSPBasicDER)
		octets := b.Begin(tagOctetString)
		basic := b.Begin(tagSequence)

		tbs := b.Begin(tagSequence)
		b.Raw(rid)
		b.GeneralizedTime(producedAt.UTC().Truncate(time.Second))
		list := b.Begin(tagSequence)
		for i := range singles {
			if err := appendSingle(b, &singles[i]); err != nil {
				return err
			}
		}
		b.End(list)
		if len(nonce) > 0 {
			appendNonceExtension(b, tagExplicit1, nonce)
		}
		tbsDER := b.End(tbs)
		if _, err := b.Bytes(); err != nil {
			return fmt.Errorf("ocsp: marshal responseData: %w", err)
		}

		sigAlg, sig, err := pkixutil.SignTBS(tmpl.Rand, tmpl.Signer, tbsDER)
		if err != nil {
			return err
		}
		b.AlgorithmIdentifier(sigAlg)
		b.BitString(sig)
		if len(tmpl.IncludeCertificates) > 0 {
			certs := b.Begin(tagExplicit0)
			seq := b.Begin(tagSequence)
			for _, c := range tmpl.IncludeCertificates {
				b.Raw(c.Raw)
			}
			b.End(seq)
			b.End(certs)
		}
		b.End(basic)
		b.End(octets)
		b.End(rb)
		b.End(wrap)
		b.End(resp)
		return nil
	})
}

// CreateErrorResponse builds an unsigned OCSP error response (tryLater,
// internalError, ...) — these have no responseBytes at all per RFC 6960.
func CreateErrorResponse(status ResponseStatus) ([]byte, error) {
	if status == StatusSuccessful {
		return nil, errors.New("ocsp: successful responses need CreateResponse")
	}
	b := pkixutil.NewDERBuilder(make([]byte, 0, 12))
	resp := b.Begin(tagSequence)
	b.Int64(tagEnumerated, int64(status))
	b.End(resp)
	return b.Bytes()
}

// ParseResponse decodes a DER OCSP response. It performs structural
// validation only; signature verification is a separate step
// (CheckSignatureFrom) so that the measurement pipeline can classify
// "parseable but badly signed" separately from "unparseable" — the two
// distinct error classes in Figure 5 of the paper. The response's byte
// fields alias der, which must not change while the response is in use.
func ParseResponse(der []byte) (*Response, error) {
	top := pkixutil.NewDERCursor(der)
	outer := pkixutil.NewDERCursor(top.Read(tagSequence))
	if top.Failed() {
		return nil, errMalformed("response")
	}
	if !top.Empty() {
		return nil, errors.New("ocsp: trailing data after response")
	}
	status := outer.ReadInt(tagEnumerated, 32)
	var respType, basicDER []byte
	if rb, ok := outer.ReadExplicit(0, tagSequence); ok {
		c := pkixutil.NewDERCursor(rb)
		respType = c.ReadOID()
		basicDER = c.Read(tagOctetString)
		if c.Failed() {
			return nil, errMalformed("responseBytes")
		}
	}
	if outer.Failed() {
		return nil, errMalformed("response")
	}
	resp := &Response{Status: ResponseStatus(status), Raw: der}
	if !resp.Status.Valid() {
		return nil, fmt.Errorf("ocsp: undefined response status %d", status)
	}
	if resp.Status != StatusSuccessful {
		return resp, nil
	}
	if !bytes.Equal(respType, oidOCSPBasicDER[2:]) {
		return nil, errors.New("ocsp: unsupported response type")
	}

	top = pkixutil.NewDERCursor(basicDER)
	basic := pkixutil.NewDERCursor(top.Read(tagSequence))
	if !top.Failed() && !top.Empty() {
		return nil, errors.New("ocsp: trailing data after basicResponse")
	}
	tbs, _, _, _ := basic.ReadAny()
	alg := pkixutil.NewDERCursor(basic.Read(tagSequence))
	sigOID := alg.ReadOID()
	alg.SkipOptionalAny()
	sig := basic.ReadBitString()
	certs, hasCerts := basic.ReadExplicit(0, tagSequence)
	if top.Failed() || basic.Failed() || alg.Failed() {
		return nil, errMalformed("basicResponse")
	}
	resp.RawTBS = tbs
	resp.SignatureAlgorithm = pkixutil.SignatureOID(sigOID)
	resp.Signature = sig.RightAlign()

	top = pkixutil.NewDERCursor(tbs)
	rd := pkixutil.NewDERCursor(top.Read(tagSequence))
	rd.ReadExplicitInt(0, tagInteger, 64, 0) // version
	_, rid, _, ridTag := rd.ReadAny()
	resp.ProducedAt = rd.ReadTime()
	list := rd.Read(tagSequence)
	exts, hasExts := rd.ReadExplicit(1, tagSequence)
	if top.Failed() || rd.Failed() {
		return nil, errMalformed("responseData")
	}

	switch ridTag {
	case 1: // byName
		resp.ResponderRawName = rid
	case 2: // byKey
		kh := pkixutil.NewDERCursor(rid)
		resp.ResponderKeyHash = kh.Read(tagOctetString)
		if kh.Failed() {
			return nil, errMalformed("responder key hash")
		}
	default:
		return nil, fmt.Errorf("ocsp: invalid responderID tag %d", ridTag)
	}

	n := 0
	for c := pkixutil.NewDERCursor(list); !c.Empty() && !c.Failed(); n++ {
		c.ReadAny()
	}
	if n == 0 {
		return nil, errors.New("ocsp: successful response with no single responses")
	}
	resp.Responses = make([]SingleResponse, 0, n)
	singles := pkixutil.NewDERCursor(list)
	for !singles.Empty() {
		s, err := readSingle(&singles)
		if err != nil {
			return nil, err
		}
		resp.Responses = append(resp.Responses, s)
	}

	if hasExts {
		v, found, err := readExtensions(exts)
		if err != nil {
			return nil, err
		}
		if found {
			resp.Nonce = decodeNonce(v)
		}
	}

	if hasCerts {
		c := pkixutil.NewDERCursor(certs)
		for !c.Empty() {
			raw, _, _, _ := c.ReadAny()
			if c.Failed() {
				return nil, errMalformed("certificates")
			}
			cert, err := x509.ParseCertificate(raw)
			if err != nil {
				return nil, fmt.Errorf("ocsp: parse embedded certificate: %w", err)
			}
			resp.Certificates = append(resp.Certificates, cert)
		}
	}
	return resp, nil
}

// Find returns the SingleResponse matching id, or nil if the response does
// not cover it (a "serial unmatch" in the paper's error taxonomy).
func (r *Response) Find(id CertID) *SingleResponse {
	for i := range r.Responses {
		if r.Responses[i].CertID.Equal(id) {
			return &r.Responses[i]
		}
	}
	return nil
}

// CheckSignatureFrom verifies the response signature assuming issuer is the
// CA that issued the certificate being checked. Per RFC 6960 §4.2.2.2 the
// signature must come either from the issuer itself or from a delegated
// responder: a certificate embedded in the response that is signed by the
// issuer and carries the id-kp-OCSPSigning EKU.
func (r *Response) CheckSignatureFrom(issuer *x509.Certificate) error {
	if r.Status != StatusSuccessful {
		return errors.New("ocsp: cannot verify signature of non-successful response")
	}
	// Direct signature by the issuer?
	directErr := pkixutil.VerifyTBS(issuer.PublicKey, r.SignatureAlgorithm, r.RawTBS, r.Signature)
	if directErr == nil {
		return nil
	}
	// Delegated responder certificate?
	for _, c := range r.Certificates {
		if err := c.CheckSignatureFrom(issuer); err != nil {
			continue
		}
		if !hasOCSPSigningEKU(c) {
			continue
		}
		if err := pkixutil.VerifyTBS(c.PublicKey, r.SignatureAlgorithm, r.RawTBS, r.Signature); err == nil {
			return nil
		}
	}
	return fmt.Errorf("ocsp: signature verification failed: %w", directErr)
}

func hasOCSPSigningEKU(c *x509.Certificate) bool {
	for _, eku := range c.ExtKeyUsage {
		if eku == x509.ExtKeyUsageOCSPSigning {
			return true
		}
	}
	return false
}
