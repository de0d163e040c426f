package store

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkStore measures one Get or Put of a 2.2 KB value, the size of
// a served /v1/sim body, under each fsync policy, against the real
// filesystem in a temporary directory. put stores a new key each time
// (storing a key twice is a no-op); get cycles through 64 stored keys,
// so every Get opens and reads its segment. Keys look like the
// service's: a code-version prefix and a 64-hex content address.
func BenchmarkStore(b *testing.B) {
	val := bytes.Repeat([]byte("x"), 2200)
	key := func(i int) string { return fmt.Sprintf("gaascache-sim/3/%064x", i) }
	for _, op := range []string{"get", "put"} {
		for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncNever} {
			b.Run(op+"/"+string(policy), func(b *testing.B) {
				s, err := Open(Options{Dir: b.TempDir(), Sync: policy})
				if err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { s.Close() })
				const stored = 64
				if op == "get" {
					for i := 0; i < stored; i++ {
						if err := s.Put(key(i), val); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.SetBytes(int64(len(val)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if op == "put" {
						if err := s.Put(key(i), val); err != nil {
							b.Fatal(err)
						}
					} else if _, ok := s.Get(key(i % stored)); !ok {
						b.Fatalf("Get %s missed", key(i%stored))
					}
				}
			})
		}
	}
}
