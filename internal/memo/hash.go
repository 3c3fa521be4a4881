// Package memo holds the repo's one content hash and its one memo cache.
//
// Every memo cache here rests on the paper's §2.2 observation that within
// one update window an unchanged status yields byte-identical response
// bytes, so a repeated request can be answered from what was computed the
// first time. Each caller keys a Cache by a Hash of the raw bytes and
// keeps its own byte-confirm on hit: a hash collision, accidental or
// forged, must cost a recomputation, never another certificate's answer.
// Hash and Hash32 are also the repo's seeded draws (jitter, shard
// routing, responder phase), so their values are pinned against hash/fnv.
package memo

// Hash returns the 64-bit FNV-1a hash of b. It takes a string or a byte
// slice as is, so hashing a string costs no []byte conversion.
//
//lint:allocfree
func Hash[T ~string | ~[]byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// Hash32 returns the 32-bit FNV-1a hash of b.
//
//lint:allocfree
func Hash32[T ~string | ~[]byte](b T) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(b); i++ {
		h ^= uint32(b[i])
		h *= 16777619
	}
	return h
}
