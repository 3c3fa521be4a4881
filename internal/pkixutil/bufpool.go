package pkixutil

import (
	"bytes"
	"sync"
)

// The buffer pool serves the codec hot paths that read or assemble DER
// whose lifetime ends within one call — most importantly the responder's
// per-scan HTTP body reads, which the campaign engine performs millions of
// times. Pooling them removes the dominant steady-state allocation of the
// serve path.

// maxPooledBuffer is the largest buffer returned to the pool. OCSP bodies
// are a few KB; the occasional megabyte read from a misbehaving peer is
// dropped instead of pinning its backing array forever.
const maxPooledBuffer = 1 << 16

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// GetBuffer returns an empty reusable buffer. Callers must not retain the
// buffer's bytes past PutBuffer; copy anything that outlives the call.
func GetBuffer() *bytes.Buffer {
	b := bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

// PutBuffer returns a buffer obtained from GetBuffer to the pool.
func PutBuffer(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuffer {
		return
	}
	bufPool.Put(b)
}

// The slice pool is the raw-[]byte sibling of the buffer pool, for hot
// paths that decode into a caller-sized slice (append-style APIs) rather
// than stream through a bytes.Buffer — most importantly the serving
// tier's GET-path base64 decode, which runs once per cache-missing
// request under load.

var bytesPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBytes returns a pooled byte slice with length 0. Callers must not
// retain the slice (or any reslice of it) past PutBytes.
func GetBytes() *[]byte {
	b := bytesPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBytes returns a slice obtained from GetBytes to the pool. Callers
// that grew the slice should store the grown slice back through the
// pointer first, so the pool keeps the larger backing array.
func PutBytes(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuffer {
		return
	}
	bytesPool.Put(b)
}

// The builder pool is the DERBuilder sibling, for encoders that assemble
// DER in a scratch builder and copy the finished bytes out — the
// responder's sign-on-miss path among them.

var builderPool = sync.Pool{New: func() any { return new(DERBuilder) }}

// GetDERBuilder returns an empty reusable builder. Callers must not retain
// its bytes past PutDERBuilder.
func GetDERBuilder() *DERBuilder {
	b := builderPool.Get().(*DERBuilder)
	b.buf, b.err = b.buf[:0], nil
	return b
}

// PutDERBuilder returns a builder obtained from GetDERBuilder to the pool.
func PutDERBuilder(b *DERBuilder) {
	if b == nil || cap(b.buf) > maxPooledBuffer {
		return
	}
	builderPool.Put(b)
}
