package cache

import (
	"fmt"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/rng"
)

// BenchmarkSetAssocAccess measures the raw access path of the
// structure-of-arrays set-associative model across the associativities
// the paper sweeps: direct-mapped (1), the classic 8-way, and the
// 512-way fully-associative extreme.
func BenchmarkSetAssocAccess(b *testing.B) {
	src := rng.New(5)
	addrs := make([]addr.Addr, 8192)
	for i := range addrs {
		addrs[i] = addr.Addr(src.Intn(1 << 22))
	}
	for _, ways := range []int{1, 8, 512} {
		b.Run(fmt.Sprintf("%dway", ways), func(b *testing.B) {
			c, err := NewSetAssoc(16*1024, 32, ways, LRU, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(addrs[i&8191], false)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
		})
	}
}
