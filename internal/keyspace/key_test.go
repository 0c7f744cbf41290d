package keyspace

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func TestHashStringDeterministicAndSpread(t *testing.T) {
	a := HashString("title=weather iraklion&date=2004/03/14")
	b := HashString("title=weather iraklion&date=2004/03/14")
	if a != b {
		t.Fatal("HashString is not deterministic")
	}
	if a == HashString("size=2405") {
		t.Fatal("distinct predicates collided (astronomically unlikely)")
	}
	// First-bit balance over many hashes: should be roughly 50/50 or the
	// trie would be badly skewed.
	ones := 0
	const n = 4096
	for i := 0; i < n; i++ {
		if HashString(strings.Repeat("k", 1)+string(rune('a'+i%26))+string(rune(i))).Bit(0) == 1 {
			ones++
		}
	}
	if ones < n/3 || ones > 2*n/3 {
		t.Errorf("first-bit balance %d/%d is badly skewed", ones, n)
	}
}

func TestBitMSBFirst(t *testing.T) {
	k := Key(0x8000000000000001)
	if k.Bit(0) != 1 {
		t.Error("Bit(0) should be the most significant bit")
	}
	if k.Bit(63) != 1 {
		t.Error("Bit(63) should be the least significant bit")
	}
	for i := 1; i < 63; i++ {
		if k.Bit(i) != 0 {
			t.Errorf("Bit(%d) = 1, want 0", i)
		}
	}
}

func TestBitPanics(t *testing.T) {
	for _, i := range []int{-1, 64, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			Key(0).Bit(i)
		}()
	}
}

func TestHasPrefix(t *testing.T) {
	k := Key(0xA000000000000000) // 1010...
	cases := []struct {
		path string
		want bool
	}{
		{"", true},
		{"1", true},
		{"10", true},
		{"1010", true},
		{"0", false},
		{"11", false},
		{"1011", false},
	}
	for _, c := range cases {
		if got := k.HasPrefix(c.path); got != c.want {
			t.Errorf("HasPrefix(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	if Key(0).HasPrefix(strings.Repeat("0", 65)) {
		t.Error("over-long path cannot be a prefix")
	}
}

func TestHasPrefixMalformedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("malformed path did not panic")
		}
	}()
	Key(0).HasPrefix("01x")
}

// bitString is the n most significant bits of k as a trie path.
func bitString(k Key, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '0' + k.Bit(i)
	}
	return string(b)
}

// Property: a key always has its own bit-string as a prefix, and flipping
// any bit of that prefix yields a non-prefix.
func TestPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	f := func() bool {
		k := Key(rng.Uint64())
		n := rng.IntN(Bits) + 1
		p := bitString(k, n)
		if !k.HasPrefix(p) {
			return false
		}
		flipped := []byte(p[:rng.IntN(n)+1])
		flipped[len(flipped)-1] ^= 1 // '0' ↔ '1'
		return !k.HasPrefix(string(flipped))
	}
	if err := quick.Check(func() bool { return f() }, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKeyString(t *testing.T) {
	if got := Key(0xAB).String(); got != "00000000000000ab" {
		t.Errorf("String = %q", got)
	}
}

// Regression test: raw FNV-64a hashes of strings differing only in the last
// byte differ by a small multiple of the FNV prime, clustering them within
// 1/65536 of the key space. The splitmix64 finalizer must spread them —
// without it, a peer's virtual ring positions all land on one spot and the
// trie's leaf assignment skews.
func TestHashStringSuffixAvalanche(t *testing.T) {
	var keys []uint64
	for j := 0; j < 16; j++ {
		keys = append(keys, uint64(HashString(fmt.Sprintf("ring-peer:7:%d", j))))
	}
	// Pairwise distances must not cluster: require every pair to be at
	// least 2^48 apart (raw FNV puts them all within ~δ·2^40).
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			d := keys[i] - keys[j]
			if d > keys[j]-keys[i] {
				d = keys[j] - keys[i]
			}
			if d < 1<<48 {
				t.Fatalf("hashes %d and %d are only %d apart — finalizer missing?", i, j, d)
			}
		}
	}
}
