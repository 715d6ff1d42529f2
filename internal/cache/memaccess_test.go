package cache

import (
	"testing"

	"bcache/internal/addr"
)

// TestMemAccessPack: every 63-bit address round-trips with either
// direction, and an address using the top bit is refused rather than
// silently truncated.
func TestMemAccessPack(t *testing.T) {
	for _, a := range []addr.Addr{0, 1, 1 << 62, 1<<63 - 1} {
		for _, write := range []bool{false, true} {
			m := NewMemAccess(a, write)
			if m.Addr() != a || m.Write() != write {
				t.Errorf("NewMemAccess(%#x, %v) unpacked to (%#x, %v)", a, write, m.Addr(), m.Write())
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewMemAccess accepted an address with the top bit set")
		}
	}()
	NewMemAccess(1<<63, false)
}
