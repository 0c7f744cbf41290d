// Package keyspace defines the binary key space the DHT indexes over.
//
// The paper assumes "a binary key space" (footnote 3) in which keys are
// obtained "by hashing single or concatenated key-value pairs" of metadata
// (§1). A Key here is a 64-bit identifier; peers in the trie DHT are
// responsible for all keys sharing their binary path prefix, so the package
// also provides the prefix algebra (bit extraction, path containment) that
// routing is written against.
package keyspace

import (
	"fmt"
	"hash/fnv"
)

// Bits is the width of the key space. 64 bits is far beyond the paper's
// 40,000 keys; collisions are negligible and prefix routing never runs out
// of bits at any simulated scale.
const Bits = 64

// Key is a point in the binary key space.
type Key uint64

// HashString maps an arbitrary string (a metadata predicate such as
// `title=weather iraklion&date=2004/03/14`) to a Key: FNV-64a followed by a
// splitmix64 finalizer. Raw FNV has a known weakness for inputs differing
// only in their last byte — the outputs differ by a small multiple of the
// FNV prime (≈2⁴⁰), which clusters them within 1/65536 of the key space and
// skews any structure partitioned on high bits (trie leaves, ring arcs).
// The finalizer restores full avalanche. The paper does not prescribe a
// hash function.
func HashString(s string) Key {
	h := fnv.New64a()
	// fnv's Write never fails.
	h.Write([]byte(s))
	return Key(mix64(h.Sum64()))
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Bit returns the i-th most significant bit of k as 0 or 1. i must be in
// [0, Bits).
func (k Key) Bit(i int) byte {
	if i < 0 || i >= Bits {
		panic(fmt.Sprintf("keyspace: bit index %d out of [0,%d)", i, Bits))
	}
	return byte(k>>(Bits-1-i)) & 1
}

// HasPrefix reports whether the binary expansion of k starts with path, a
// string of '0'/'1' runes. An empty path matches every key. It panics on a
// malformed path because a typo'd path would silently misroute every lookup.
func (k Key) HasPrefix(path string) bool {
	for i := 0; i < len(path); i++ {
		if c := path[i]; c != '0' && c != '1' {
			panic(fmt.Sprintf("keyspace: malformed path %q at index %d", path, i))
		}
	}
	if len(path) > Bits {
		return false
	}
	for i := 0; i < len(path); i++ {
		if k.Bit(i) != path[i]-'0' {
			return false
		}
	}
	return true
}

// String renders the key as fixed-width hex, so logs sort lexically in key
// order.
func (k Key) String() string { return fmt.Sprintf("%016x", uint64(k)) }
