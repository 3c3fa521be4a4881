package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// framed returns payloads in the shared record framing, written through
// the same frameWriter the segment writers use.
func framed(t testing.TB, payloads ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := newFrameWriter(64)
	w.bw.Reset(&buf)
	for _, p := range payloads {
		if err := w.append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanAll runs scanFrames over data and returns the payloads delivered.
func scanAll(data []byte, strict bool) ([]string, int64, error) {
	var got []string
	committed, _, err := scanFrames(bytes.NewReader(data), 0, nil, strict, func(p []byte, _ int64) error {
		got = append(got, string(p))
		return nil
	})
	return got, committed, err
}

// failingReader yields data, then fails with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestScanFramesReadErrorIsNotTorn: a read failure that is not EOF is an
// I/O error under both policies. Taking it for a torn tail would let
// recovery truncate durable records.
func TestScanFramesReadErrorIsNotTorn(t *testing.T) {
	data := framed(t, "first", "second", "third")
	intact := int64(len(framed(t, "first", "second")))
	errDisk := errors.New("disk read failed")
	for _, strict := range []bool{false, true} {
		// Fail partway through the third frame's payload, then partway
		// through its header.
		for _, at := range []int64{intact + recordHeaderSize + 2, intact + 3} {
			r := &failingReader{data: data[:at], err: errDisk}
			committed, _, err := scanFrames(r, 0, nil, strict, nil)
			if !errors.Is(err, errDisk) {
				t.Fatalf("strict=%v cut=%d: err = %v, want the read error", strict, at, err)
			}
			if committed != intact {
				t.Fatalf("strict=%v cut=%d: committed = %d, want %d", strict, at, committed, intact)
			}
		}
	}
}

// FuzzScanFrames holds the two torn-tail policies to each other: on any
// input they deliver the same payloads and agree on the committed
// offset, which never passes the input's end, and the strict scan
// succeeds exactly when every byte was committed.
func FuzzScanFrames(f *testing.F) {
	two := framed(f, "alpha", "beta")
	f.Add([]byte{})
	f.Add(two)
	f.Add(two[:len(two)-1])
	f.Add(two[:11])
	corrupt := append([]byte(nil), two...)
	corrupt[9] ^= 1
	f.Add(corrupt)
	f.Add(append(framed(f, "x"), 0, 0, 0, 0, 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		tolerant, tc, terr := scanAll(data, false)
		strict, sc, serr := scanAll(data, true)
		if terr != nil {
			t.Fatalf("tolerant scan of in-memory bytes failed: %v", terr)
		}
		if tc < 0 || tc > int64(len(data)) {
			t.Fatalf("committed %d outside input of %d bytes", tc, len(data))
		}
		if sc != tc || !reflect.DeepEqual(strict, tolerant) {
			t.Fatalf("strict delivered %d payloads to %d, tolerant %d to %d", len(strict), sc, len(tolerant), tc)
		}
		if (serr == nil) != (sc == int64(len(data))) {
			t.Fatalf("strict err %v with %d of %d bytes committed", serr, sc, len(data))
		}
		if !bytes.Equal(framed(t, tolerant...), data[:tc]) {
			t.Fatal("delivered payloads do not re-frame to the committed bytes")
		}
	})
}
