package ocsp

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"errors"
	"math/big"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// Request is a parsed or to-be-marshalled OCSP request. It may carry more
// than one CertID (RFC 6960 allows a requestList with multiple entries).
type Request struct {
	// CertIDs are the certificates whose status is requested; at least
	// one is required.
	CertIDs []CertID
	// Nonce, if non-empty, is carried in the id-pkix-ocsp-nonce request
	// extension to bind the response to this request.
	Nonce []byte
}

// NewRequest builds a single-certificate request for cert issued by issuer.
func NewRequest(cert, issuer *x509.Certificate, h crypto.Hash) (*Request, error) {
	id, err := NewCertID(cert, issuer, h)
	if err != nil {
		return nil, err
	}
	return &Request{CertIDs: []CertID{id}}, nil
}

// NewRequestForSerial builds a request for a bare (issuer, serial) pair.
func NewRequestForSerial(serial *big.Int, issuer *x509.Certificate, h crypto.Hash) (*Request, error) {
	id, err := NewCertIDForSerial(serial, issuer, h)
	if err != nil {
		return nil, err
	}
	return &Request{CertIDs: []CertID{id}}, nil
}

// Marshal encodes the request as DER. Request signing (optionalSignature)
// is intentionally unsupported: no public responder requires it and the
// paper's measurement client never signs requests.
func (r *Request) Marshal() ([]byte, error) {
	if len(r.CertIDs) == 0 {
		return nil, errors.New("ocsp: request has no CertIDs")
	}
	return buildPooled(func(b *pkixutil.DERBuilder) error {
		req := b.Begin(tagSequence)
		tbs := b.Begin(tagSequence)
		list := b.Begin(tagSequence)
		for i := range r.CertIDs {
			single := b.Begin(tagSequence)
			if err := appendCertID(b, &r.CertIDs[i]); err != nil {
				return err
			}
			b.End(single)
		}
		b.End(list)
		if len(r.Nonce) > 0 {
			appendNonceExtension(b, tagExplicit2, r.Nonce)
		}
		b.End(tbs)
		b.End(req)
		return nil
	})
}

// ParseRequest decodes a DER OCSP request. A signed request's signature
// is ignored. The request's byte fields are copies, so der may be reused
// once this returns.
func ParseRequest(der []byte) (*Request, error) {
	top := pkixutil.NewDERCursor(der)
	outer := pkixutil.NewDERCursor(top.Read(tagSequence))
	if top.Failed() {
		return nil, errMalformed("request")
	}
	if !top.Empty() {
		return nil, errors.New("ocsp: trailing data after request")
	}
	tbs := pkixutil.NewDERCursor(outer.Read(tagSequence))
	tbs.ReadExplicitInt(0, tagInteger, 64, 0) // version
	tbs.ReadExplicit(1, tagAny)               // requestorName
	list := pkixutil.NewDERCursor(tbs.Read(tagSequence))
	exts, hasExts := tbs.ReadExplicit(2, tagSequence)
	if outer.Failed() || tbs.Failed() {
		return nil, errMalformed("request")
	}

	req := &Request{}
	for !list.Empty() {
		single := pkixutil.NewDERCursor(list.Read(tagSequence))
		id, err := readCertID(&single)
		if err != nil {
			return nil, err
		}
		if singleExts, ok := single.ReadExplicit(0, tagSequence); ok {
			if _, _, err := readExtensions(singleExts); err != nil {
				return nil, err
			}
		}
		if list.Failed() || single.Failed() {
			return nil, errMalformed("request")
		}
		// One copy backs both hashes: the request bytes are often a
		// pooled read buffer.
		hashes := append(append(make([]byte, 0, len(id.IssuerNameHash)+len(id.IssuerKeyHash)),
			id.IssuerNameHash...), id.IssuerKeyHash...)
		n := len(id.IssuerNameHash)
		id.IssuerNameHash, id.IssuerKeyHash = hashes[:n:n], hashes[n:]
		req.CertIDs = append(req.CertIDs, id)
	}
	if len(req.CertIDs) == 0 {
		return nil, errors.New("ocsp: request has empty requestList")
	}
	if hasExts {
		v, found, err := readExtensions(exts)
		if err != nil {
			return nil, err
		}
		if found {
			req.Nonce = bytes.Clone(decodeNonce(v))
		}
	}
	return req, nil
}
