package core

import (
	"testing"

	"pdht/internal/keyspace"
)

func BenchmarkCachePutGet(b *testing.B) {
	c, err := NewCache(100)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]keyspace.Key, 256)
	for i := range keys {
		keys[i] = keyspace.Key(uint64(i) * 0x9e3779b97f4a7c15)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := keys[i%len(keys)]
		c.Put(key, Value(i), i+100, i)
		c.Get(key, i)
	}
}
