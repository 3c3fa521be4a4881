package ocsp

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"encoding/asn1"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// The differential tests below hold the fixed-shape DER codec to the
// reflective reference in reference_test.go: byte-identical output from
// the encoders, and the same verdict and equal values from the parsers.

// diffPKI is a seeded fixture whose ECDSA keys sign deterministically,
// so the codec's and the reference's signed responses can be compared
// byte for byte. Its RSA root (PKCS #1 v1.5 signing is deterministic too)
// is built only when not in -short mode.
type diffPKI struct {
	ca, rsaCA *pki.CA
	leaf      *pki.Leaf
	delegate  *pki.Leaf
}

func newDiffPKI(t testing.TB) *diffPKI {
	t.Helper()
	ca, err := pki.NewRootCA(pki.Config{Name: "Differential Root", Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"diff.example.test"}})
	if err != nil {
		t.Fatal(err)
	}
	delegate, err := ca.IssueOCSPResponderCert("Differential Delegate", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	p := &diffPKI{ca: ca, leaf: leaf, delegate: delegate}
	if !testing.Short() {
		if p.rsaCA, err = pki.NewRootCA(pki.Config{Name: "Differential RSA Root", KeyAlgorithm: pki.RSA2048}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// randomSerial draws serials of every shape the INTEGER encoder meets:
// zero, small, top-bit-set, long (past the 127-octet short length form)
// and negative.
func randomSerial(rng *rand.Rand) *big.Int {
	switch rng.Intn(8) {
	case 0:
		return big.NewInt(0)
	case 1:
		return big.NewInt(-rng.Int63n(1 << 40))
	case 2:
		b := make([]byte, 130+rng.Intn(20))
		rng.Read(b)
		return new(big.Int).SetBytes(b)
	case 3:
		return new(big.Int).Lsh(big.NewInt(1), uint(8*(1+rng.Intn(20))-1))
	default:
		b := make([]byte, 1+rng.Intn(20))
		rng.Read(b)
		return new(big.Int).SetBytes(b)
	}
}

func randomTime(rng *rand.Rand) time.Time {
	if rng.Intn(10) == 0 {
		return time.Time{}
	}
	t := time.Date(1+rng.Intn(9998), time.January, 1, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(rng.Int63n(int64(365 * 24 * time.Hour))))
	if rng.Intn(4) == 0 {
		t = t.In(time.FixedZone("", (rng.Intn(48)-24)*1800))
	}
	return t
}

func randomCertID(t testing.TB, rng *rand.Rand, issuer *x509.Certificate) CertID {
	hashes := []crypto.Hash{crypto.SHA1, crypto.SHA1, crypto.SHA256, crypto.SHA384, crypto.SHA512}
	id, err := NewCertIDForSerial(randomSerial(rng), issuer, hashes[rng.Intn(len(hashes))])
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func randomSingles(t testing.TB, rng *rand.Rand, issuer *x509.Certificate) []SingleResponse {
	reasons := []pkixutil.ReasonCode{
		pkixutil.ReasonAbsent, pkixutil.ReasonUnspecified, pkixutil.ReasonKeyCompromise,
		pkixutil.ReasonCertificateHold, pkixutil.ReasonAACompromise, 7, 200, -2,
	}
	singles := make([]SingleResponse, 1+rng.Intn(22))
	for i := range singles {
		s := SingleResponse{
			CertID:     randomCertID(t, rng, issuer),
			Status:     CertStatus(rng.Intn(3)),
			ThisUpdate: randomTime(rng),
			Reason:     pkixutil.ReasonAbsent,
		}
		if rng.Intn(3) != 0 {
			s.NextUpdate = s.ThisUpdate.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		}
		if s.Status == Revoked {
			s.RevokedAt = randomTime(rng)
			s.Reason = reasons[rng.Intn(len(reasons))]
		}
		singles[i] = s
	}
	return singles
}

func TestCreateResponseMatchesReference(t *testing.T) {
	p := newDiffPKI(t)
	rng := rand.New(rand.NewSource(13))
	const cases = 1200
	for i := 0; i < cases; i++ {
		ca := p.ca
		if p.rsaCA != nil && i%12 == 0 {
			ca = p.rsaCA
		}
		tmpl := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate, ByName: rng.Intn(4) == 0}
		switch rng.Intn(6) {
		case 0:
			tmpl.IncludeCertificates = []*x509.Certificate{p.delegate.Certificate}
		case 1:
			tmpl.IncludeCertificates = []*x509.Certificate{p.delegate.Certificate, p.leaf.Certificate, ca.Certificate}
		}
		singles := randomSingles(t, rng, ca.Certificate)
		var nonce []byte
		if rng.Intn(3) == 0 {
			nonce = make([]byte, rng.Intn(200))
			rng.Read(nonce)
		}
		producedAt := randomTime(rng)
		// Now and then an input both must refuse.
		switch rng.Intn(40) {
		case 0:
			producedAt = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
		case 1:
			singles[0].Status = CertStatus(3)
		case 2:
			singles[0].CertID.Serial = nil
		case 3:
			singles[0].CertID.HashAlgorithm = crypto.MD5
		}

		got, gotErr := CreateResponse(tmpl, producedAt, singles, nonce)
		want, wantErr := refCreateResponse(tmpl, producedAt, singles, nonce)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d: error mismatch: codec %v, reference %v", i, gotErr, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: DER differs\ncodec     %x\nreference %x", i, got, want)
		}
		if gotErr == nil {
			checkParsersAgree(t, got)
		}
	}
}

func TestRequestMarshalMatchesReference(t *testing.T) {
	p := newDiffPKI(t)
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 500; i++ {
		req := &Request{}
		for n := rng.Intn(22); n >= 0; n-- {
			req.CertIDs = append(req.CertIDs, randomCertID(t, rng, p.ca.Certificate))
		}
		if rng.Intn(2) == 0 {
			req.Nonce = make([]byte, rng.Intn(200))
			rng.Read(req.Nonce)
		}
		if rng.Intn(30) == 0 {
			req.CertIDs[0].Serial = nil
		}
		got, gotErr := req.Marshal()
		want, wantErr := refMarshalRequest(req)
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("case %d: codec (%x, %v), reference (%x, %v)", i, got, gotErr, want, wantErr)
		}
		if gotErr == nil {
			checkParsersAgree(t, got)
		}
	}
}

func TestCreateErrorResponseMatchesReference(t *testing.T) {
	for _, s := range []int{-1 << 62, -70000, -129, -128, -1, 0, 1, 2, 3, 4, 5, 6, 7, 127, 128, 255, 256, 1 << 40} {
		got, gotErr := CreateErrorResponse(ResponseStatus(s))
		want, wantErr := refCreateErrorResponse(ResponseStatus(s))
		if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
			t.Errorf("status %d: codec (%x, %v), reference (%x, %v)", s, got, gotErr, want, wantErr)
		}
	}
}

// checkParsersAgree runs both parsers (response and request) over der and
// fails unless the codec and the reference agree.
func checkParsersAgree(t testing.TB, der []byte) {
	t.Helper()
	checkResponseParsersAgree(t, der)
	checkRequestParsersAgree(t, der)
}

func checkResponseParsersAgree(t testing.TB, der []byte) {
	t.Helper()
	got, gotErr := ParseResponse(der)
	want, wantErr := refParseResponse(der)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ParseResponse verdict differs on %x: codec %v, reference %v", der, gotErr, wantErr)
	}
	if gotErr == nil {
		if d := diffResponse(got, want); d != "" {
			t.Fatalf("ParseResponse value differs on %x: %s", der, d)
		}
	}
}

func checkRequestParsersAgree(t testing.TB, der []byte) {
	t.Helper()
	got, gotErr := ParseRequest(der)
	want, wantErr := refParseRequest(der)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ParseRequest verdict differs on %x: codec %v, reference %v", der, gotErr, wantErr)
	}
	if gotErr == nil {
		if d := diffRequest(got, want); d != "" {
			t.Fatalf("ParseRequest value differs on %x: %s", der, d)
		}
	}
}

func diffBytes(name string, a, b []byte) string {
	if !bytes.Equal(a, b) || (a == nil) != (b == nil) {
		return fmt.Sprintf("%s: %x (nil %v) vs %x (nil %v)", name, a, a == nil, b, b == nil)
	}
	return ""
}

func diffTime(name string, a, b time.Time) string {
	an, ao := a.Zone()
	bn, bo := b.Zone()
	if !a.Equal(b) || an != bn || ao != bo {
		return fmt.Sprintf("%s: %v vs %v", name, a, b)
	}
	return ""
}

func diffCertID(a, b CertID) string {
	if a.HashAlgorithm != b.HashAlgorithm {
		return fmt.Sprintf("hash %v vs %v", a.HashAlgorithm, b.HashAlgorithm)
	}
	if a.Serial.Cmp(b.Serial) != 0 {
		return fmt.Sprintf("serial %v vs %v", a.Serial, b.Serial)
	}
	return diffBytes("issuerNameHash", a.IssuerNameHash, b.IssuerNameHash) +
		diffBytes("issuerKeyHash", a.IssuerKeyHash, b.IssuerKeyHash)
}

func diffResponse(a, b *Response) string {
	if a.Status != b.Status || len(a.Responses) != len(b.Responses) ||
		(a.Responses == nil) != (b.Responses == nil) ||
		len(a.Certificates) != len(b.Certificates) ||
		!a.SignatureAlgorithm.Equal(b.SignatureAlgorithm) {
		return fmt.Sprintf("status/counts/algorithm: %+v vs %+v", a, b)
	}
	d := diffTime("producedAt", a.ProducedAt, b.ProducedAt) +
		diffBytes("nonce", a.Nonce, b.Nonce) +
		diffBytes("responderKeyHash", a.ResponderKeyHash, b.ResponderKeyHash) +
		diffBytes("responderRawName", a.ResponderRawName, b.ResponderRawName) +
		diffBytes("signature", a.Signature, b.Signature) +
		diffBytes("raw", a.Raw, b.Raw) +
		diffBytes("rawTBS", a.RawTBS, b.RawTBS)
	for i := range a.Certificates {
		d += diffBytes("certificate", a.Certificates[i].Raw, b.Certificates[i].Raw)
	}
	for i := range a.Responses {
		x, y := a.Responses[i], b.Responses[i]
		if x.Status != y.Status || x.Reason != y.Reason {
			d += fmt.Sprintf("single %d: status %v/%v reason %v/%v", i, x.Status, y.Status, x.Reason, y.Reason)
		}
		d += diffCertID(x.CertID, y.CertID) +
			diffTime("revokedAt", x.RevokedAt, y.RevokedAt) +
			diffTime("thisUpdate", x.ThisUpdate, y.ThisUpdate) +
			diffTime("nextUpdate", x.NextUpdate, y.NextUpdate)
	}
	return d
}

func diffRequest(a, b *Request) string {
	if len(a.CertIDs) != len(b.CertIDs) {
		return fmt.Sprintf("%d CertIDs vs %d", len(a.CertIDs), len(b.CertIDs))
	}
	d := diffBytes("nonce", a.Nonce, b.Nonce)
	for i := range a.CertIDs {
		d += diffCertID(a.CertIDs[i], b.CertIDs[i])
	}
	return d
}

// parserSeeds returns one valid body of each shape the codec writes, the
// responder's four malformed payloads, the bases of the *NeverPanics
// tests and the quirk bodies — the seed corpus of both fuzz targets.
func parserSeeds(t testing.TB) [][]byte {
	t.Helper()
	p := newTestPKI(t)
	id := p.certID(t)
	sha256ID, err := NewCertID(p.leaf.Certificate, p.ca.Certificate, crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	delegate, err := p.ca.IssueOCSPResponderCert("Differential Delegate", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	good := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	revoked := good
	revoked.Status, revoked.RevokedAt, revoked.Reason = Revoked, testTime.Add(-time.Hour), pkixutil.ReasonKeyCompromise
	revokedNoReason := revoked
	revokedNoReason.Reason = pkixutil.ReasonAbsent
	unknown := good
	unknown.Status = Unknown
	blank := good
	blank.NextUpdate = time.Time{}
	sha256 := good
	sha256.CertID = sha256ID
	var many []SingleResponse
	for i := 0; i < 20; i++ {
		s := good
		s.CertID.Serial = big.NewInt(int64(1000 + i))
		many = append(many, s)
	}

	byName := p.template()
	byName.ByName = true
	withCerts := p.template()
	withCerts.IncludeCertificates = []*x509.Certificate{delegate.Certificate}
	shapes := []struct {
		tmpl    *ResponderTemplate
		singles []SingleResponse
		nonce   []byte
	}{
		{p.template(), []SingleResponse{good}, nil},
		{p.template(), []SingleResponse{revoked}, nil},
		{p.template(), []SingleResponse{revokedNoReason}, nil},
		{p.template(), []SingleResponse{unknown}, nil},
		{p.template(), []SingleResponse{blank}, nil},
		{p.template(), []SingleResponse{sha256}, nil},
		{p.template(), many, nil},
		{p.template(), []SingleResponse{good}, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{byName, []SingleResponse{good}, nil},
		{withCerts, []SingleResponse{good}, nil},
	}
	var seeds [][]byte
	for _, s := range shapes {
		der, err := CreateResponse(s.tmpl, testTime, s.singles, s.nonce)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, der)
	}
	for st := StatusMalformedRequest; st <= StatusUnauthorized; st++ {
		der, _ := CreateErrorResponse(st)
		seeds = append(seeds, der)
	}
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	req.Nonce = []byte("request nonce")
	req.CertIDs = append(req.CertIDs, sha256ID)
	nonceReqDER, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return append(append(seeds, reqDER, nonceReqDER,
		// responder.malformedBody's four payloads.
		[]byte{},
		[]byte("0"),
		[]byte("<html><script>window.location='/login';</script></html>"),
		[]byte{0x30, 0x82, 0x01, 0xff, 0x0a, 0x01, 0x00, 0xa0},
	), quirkBodies(t)...)
}

func FuzzParseResponse(f *testing.F) {
	for _, s := range parserSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, der []byte) { checkResponseParsersAgree(t, der) })
}

func FuzzParseRequest(f *testing.F) {
	for _, s := range parserSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, der []byte) { checkRequestParsersAgree(t, der) })
}

// TestParsersAgreeOnMutations is the fuzz targets' property over a fixed
// budget of seeded mutations, so tier 1 exercises it without -fuzz.
func TestParsersAgreeOnMutations(t *testing.T) {
	seeds := parserSeeds(t)
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 6000; trial++ {
		der := bytes.Clone(seeds[rng.Intn(len(seeds))])
		if len(der) > 0 {
			switch trial % 4 {
			case 0:
				for k := 0; k < 1+rng.Intn(3); k++ {
					der[rng.Intn(len(der))] ^= byte(1 + rng.Intn(255))
				}
			case 1:
				der = der[:rng.Intn(len(der))]
			case 2:
				at := rng.Intn(len(der))
				der[at] = []byte{0x00, 0x01, 0x05, 0x17, 0x18, 0x30, 0x80, 0x81, 0x82, 0xa0, 0xa1, 0xa2, 0xff}[rng.Intn(13)]
			case 3:
				extra := make([]byte, 1+rng.Intn(8))
				rng.Read(extra)
				der = append(der, extra...)
			}
		}
		checkParsersAgree(t, der)
	}
}

// quirkBodies re-encodes a valid response with one field bent per body,
// through the reference wire structures, so that tier 1 checks the
// parsers on the shapes random mutation rarely reaches: foreign CHOICE
// arms and classes, raw and repeated nonces, versions, single-response
// extensions, signed requests and error statuses carrying responseBytes.
func quirkBodies(t testing.TB) [][]byte {
	t.Helper()
	p := newTestPKI(t)
	good := SingleResponse{CertID: p.certID(t), Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{good}, []byte{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	mustMarshal := func(v any) []byte {
		b, err := asn1.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var outer ocspResponseASN1
	var basic basicResponseASN1
	var rd responseDataASN1
	if _, err := asn1.Unmarshal(der, &outer); err != nil {
		t.Fatal(err)
	}
	if _, err := asn1.Unmarshal(outer.ResponseBytes.Response, &basic); err != nil {
		t.Fatal(err)
	}
	if _, err := asn1.Unmarshal(basic.TBSResponseData.FullBytes, &rd); err != nil {
		t.Fatal(err)
	}
	rewrap := func(rd responseDataASN1) []byte {
		b := basic
		b.TBSResponseData = asn1.RawValue{FullBytes: mustMarshal(rd)}
		o := outer
		o.ResponseBytes.Response = mustMarshal(b)
		return mustMarshal(o)
	}
	nonce := func(v []byte) extensionASN1 { return extensionASN1{ID: pkixutil.OIDOCSPNonce, Value: v} }
	octets := func(v []byte) []byte { return mustMarshal(v) }
	revokedInfo := func(parts ...[]byte) asn1.RawValue {
		return asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 1, IsCompound: true, Bytes: bytes.Join(parts, nil)}
	}
	utc := mustMarshal(testTime)
	gen, _ := asn1.MarshalWithParams(testTime, "generalized")
	bends := []func(rd *responseDataASN1){
		func(rd *responseDataASN1) { rd.Responses[0].CertStatus = asn1.RawValue{Tag: 0} },
		func(rd *responseDataASN1) {
			rd.Responses[0].CertStatus = asn1.RawValue{Class: asn1.ClassApplication, Tag: 1}
		},
		func(rd *responseDataASN1) {
			rd.Responses[0].CertStatus = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 3}
		},
		func(rd *responseDataASN1) {
			rd.Responses[0].CertStatus = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 0, IsCompound: true, Bytes: []byte{5, 0}}
		},
		func(rd *responseDataASN1) { rd.Responses[0].CertStatus = revokedInfo(utc) },
		func(rd *responseDataASN1) { rd.Responses[0].CertStatus = revokedInfo(gen, []byte{0xa0, 3, 2, 1, 1}) },
		func(rd *responseDataASN1) {
			rd.Responses[0].CertStatus = revokedInfo(gen, []byte{0xa0, 3, 0x0a, 1, 1}, []byte{5, 0})
		},
		func(rd *responseDataASN1) { rd.Responses[0].CertStatus = revokedInfo(gen, []byte{0xa0, 0}) },
		func(rd *responseDataASN1) { rd.Responses[0].CertStatus = revokedInfo([]byte{0x04, 0}) },
		func(rd *responseDataASN1) { rd.ResponderID = asn1.RawValue{Tag: 1, Bytes: []byte{1, 2}} },
		func(rd *responseDataASN1) {
			rd.ResponderID = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 2, IsCompound: true, Bytes: []byte{5, 0}}
		},
		func(rd *responseDataASN1) {
			rd.ResponderID = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 2, IsCompound: true, Bytes: []byte{4, 1, 7, 5, 0}}
		},
		func(rd *responseDataASN1) { rd.ResponderID = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 3} },
		func(rd *responseDataASN1) { rd.Version = 1 },
		func(rd *responseDataASN1) { rd.Extensions = []extensionASN1{nonce([]byte{1, 2, 3})} },
		func(rd *responseDataASN1) { rd.Extensions = []extensionASN1{nonce(nil)} },
		func(rd *responseDataASN1) {
			rd.Extensions = []extensionASN1{{ID: pkixutil.OIDOCSPBasic, Critical: true, Value: []byte{1}}, nonce(octets([]byte{7})), nonce(octets([]byte{8}))}
		},
		func(rd *responseDataASN1) { rd.Extensions = []extensionASN1{} },
		func(rd *responseDataASN1) { rd.Responses[0].Extensions = []extensionASN1{nonce(octets([]byte{1}))} },
		func(rd *responseDataASN1) {
			rd.Responses[0].Extensions = []extensionASN1{{ID: asn1.ObjectIdentifier{2, 5}, Value: nil}}
		},
		func(rd *responseDataASN1) { rd.Responses[0].NextUpdate = time.Time{} },
		func(rd *responseDataASN1) { rd.Responses[0].CertID.HashAlgorithm.Parameters = asn1.RawValue{} },
		func(rd *responseDataASN1) { rd.Responses[0].CertID.HashAlgorithm.Algorithm = pkixutil.OIDSHA384 },
		func(rd *responseDataASN1) {
			rd.Responses[0].CertID.HashAlgorithm.Algorithm = asn1.ObjectIdentifier{1, 2, 3}
		},
		func(rd *responseDataASN1) { rd.Responses[0].CertID.Serial = big.NewInt(-5) },
		func(rd *responseDataASN1) { rd.Responses = append(rd.Responses, rd.Responses[0]) },
		func(rd *responseDataASN1) { rd.Responses = []singleResponseASN1{} },
	}
	var out [][]byte
	for _, bend := range bends {
		r := rd
		r.Responses = append([]singleResponseASN1(nil), rd.Responses...)
		bend(&r)
		out = append(out, rewrap(r))
	}
	// Outer-level bends: a foreign response type, error statuses that
	// still carry responseBytes, and a signed request.
	o := outer
	o.ResponseBytes.ResponseType = asn1.ObjectIdentifier{1, 2, 3}
	out = append(out, mustMarshal(o))
	for _, st := range []asn1.Enumerated{1, 3, 4} {
		o := outer
		o.Status = st
		out = append(out, mustMarshal(o))
	}
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var w ocspRequestASN1
	if _, err := asn1.Unmarshal(reqDER, &w); err != nil {
		t.Fatal(err)
	}
	signed := struct {
		TBSRequest tbsRequestASN1
		Signature  asn1.RawValue `asn1:"explicit,tag:0"`
	}{w.TBSRequest, asn1.RawValue{Tag: asn1.TagNull}}
	w.TBSRequest.Version = 1
	// A RawValue field is written as is, explicit tag or not: the [1]
	// wrapper is spelled out.
	w.TBSRequest.RequestorName = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 1, IsCompound: true, Bytes: []byte{0xa4, 2, 0x30, 0}}
	w.TBSRequest.RequestList[0].Extensions = []extensionASN1{nonce(nil)}
	w.TBSRequest.Extensions = []extensionASN1{nonce([]byte("raw"))}
	return append(out, mustMarshal(signed), mustMarshal(w))
}

func TestParsersAgreeOnQuirks(t *testing.T) {
	for _, der := range quirkBodies(t) {
		checkParsersAgree(t, der)
	}
}
