//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so
// the pooled encoders allocate more under -race; the ceilings hold only
// without it.

package ocsp

import (
	"crypto"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// TestCodecAllocationCeilings pins the codec's allocations per call at
// the counts measured when it replaced encoding/asn1 reflection, which
// cost 40, 21 and 53 allocations on the same inputs. What remains is the
// result: the Response or Request, its slice of singles or CertIDs, the
// serial's big.Int (two objects), the request's copied hashes, and the
// encoded bytes.
func TestCodecAllocationCeilings(t *testing.T) {
	p := newTestPKI(t)
	single := SingleResponse{CertID: p.certID(t), Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	respDER, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		call    func() error
	}{
		{"ParseResponse", 4, func() error { _, err := ParseResponse(respDER); return err }},
		{"ParseRequest", 5, func() error { _, err := ParseRequest(reqDER); return err }},
		{"Request.Marshal", 1, func() error { _, err := req.Marshal(); return err }},
	} {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(200, func() { c.call() }); n > c.ceiling {
			t.Errorf("%s allocates %v times per call, ceiling %v", c.name, n, c.ceiling)
		}
	}
}
