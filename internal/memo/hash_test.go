package memo

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestHashMatchesStdlib pins Hash and Hash32, in both their string and
// []byte forms, to hash/fnv's FNV-1a. Seeded figures (latency and retry
// jitter, the responder's window phase and farm instance picks) and the
// collector's shard routing are all functions of these values.
func TestHashMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	inputs := map[string][]byte{
		"empty":       {},
		"one byte":    {0x61},
		"zero byte":   {0x00},
		"high byte":   {0xff},
		"text":        []byte("ocsp.example.test|1001"),
		"random 17":   random(17),
		"random 255":  random(255),
		"random 4KiB": random(4096),
	}
	for name, b := range inputs {
		h64 := fnv.New64a()
		h64.Write(b)
		h32 := fnv.New32a()
		h32.Write(b)
		want64, want32 := h64.Sum64(), h32.Sum32()
		if got := Hash(b); got != want64 {
			t.Errorf("%s: Hash([]byte) = %#x, want %#x", name, got, want64)
		}
		if got := Hash(string(b)); got != want64 {
			t.Errorf("%s: Hash(string) = %#x, want %#x", name, got, want64)
		}
		if got := Hash32(b); got != want32 {
			t.Errorf("%s: Hash32([]byte) = %#x, want %#x", name, got, want32)
		}
		if got := Hash32(string(b)); got != want32 {
			t.Errorf("%s: Hash32(string) = %#x, want %#x", name, got, want32)
		}
	}
}

// TestHashDoesNotAllocate: hashing a string or a byte slice is free.
func TestHashDoesNotAllocate(t *testing.T) {
	s := "ocsp.example.test|1001"
	b := []byte(s)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		sink += Hash(s) + Hash(b) + uint64(Hash32(s)) + uint64(Hash32(b))
	}); n != 0 {
		t.Fatalf("hashing allocated %.1f times per run", n)
	}
	_ = sink
}
