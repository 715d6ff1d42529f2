package threec

import (
	"encoding/binary"
	"testing"

	"bcache/internal/addr"
	"bcache/internal/cache"
	"bcache/internal/cachespec"
	"bcache/internal/rng"
)

// jointOracle is the classifier with the cache under test inside it:
// per access it steps the first-touch set and the reference, accesses
// the cache, and counts the access under the cache's verdict. It is the
// oracle Classify plus a replay's Tally must match.
type jointOracle struct {
	under  cache.Cache
	ref    *Classifier
	counts Counts
}

// referenceOf builds the classifier of c's geometry.
func referenceOf(t testing.TB, c cache.Cache) *Classifier {
	t.Helper()
	g := c.Geometry()
	ref, err := New(g.Frames, g.LineBytes)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func newJointOracle(t testing.TB, under cache.Cache) *jointOracle {
	t.Helper()
	return &jointOracle{under: under, ref: referenceOf(t, under)}
}

func (o *jointOracle) access(a addr.Addr, write bool) {
	block := a >> o.ref.blockShift
	_, touched := o.ref.seen[block]
	if !touched {
		o.ref.seen[block] = struct{}{}
	}
	faHit := o.ref.reference(block)
	switch hit := o.under.Access(a, write).Hit; {
	case hit:
		o.counts.Hits++
	case !touched:
		o.counts.Compulsory++
	case !faHit:
		o.counts.Capacity++
	default:
		o.counts.Conflict++
	}
}

// classified is the fast path over one cache: its classifier, and the
// scratch of one chunk's classes and events.
type classified struct {
	under   cache.Cache
	ref     *Classifier
	classes []Class
	events  []cache.Event
	counts  Counts
}

// newClassified and newJointOracle build the two halves that the
// threec-events-vs-access pair's tests must drive (oraclepairs.json).
func newClassified(t testing.TB, under cache.Cache) *classified {
	t.Helper()
	return &classified{under: under, ref: referenceOf(t, under)}
}

// feed classifies chunk, replays it through the cache and tallies it.
func (c *classified) feed(chunk []cache.MemAccess) {
	c.classes = c.ref.Classify(c.classes[:0], chunk)
	c.events = c.events[:0]
	cache.Replay(c.under, chunk, &c.events)
	c.counts.Tally(c.classes, c.events)
}

func newDM(t testing.TB, size int) cache.Cache {
	t.Helper()
	dm, err := cache.NewDirectMapped(size, 32)
	if err != nil {
		t.Fatal(err)
	}
	return dm
}

// countsOf classifies stream on a direct-mapped cache of size bytes.
func countsOf(t *testing.T, size int, stream []cache.MemAccess) Counts {
	t.Helper()
	c := newClassified(t, newDM(t, size))
	c.feed(stream)
	return c.counts
}

func reads(as ...addr.Addr) []cache.MemAccess {
	s := make([]cache.MemAccess, len(as))
	for i, a := range as {
		s[i] = cache.NewMemAccess(a, false)
	}
	return s
}

func TestFirstTouchIsCompulsory(t *testing.T) {
	c := newClassified(t, newDM(t, 1024))
	c.feed(reads(0))
	if got := c.counts; got.Compulsory != 1 || got.Misses() != 1 {
		t.Fatalf("first touch classified %+v", got)
	}
	c.feed(reads(0))
	if got := c.counts; got.Hits != 1 || got.Misses() != 1 {
		t.Fatalf("second touch classified %+v, want a hit", got)
	}
}

func TestPureConflict(t *testing.T) {
	// Two lines aliasing in a DM cache but far under its capacity:
	// after warm-up, every miss is a conflict.
	stream := []addr.Addr{0, 1024}
	for i := 0; i < 20; i++ {
		stream = append(stream, addr.Addr((i%2)*1024))
	}
	got := countsOf(t, 1024, reads(stream...))
	if got.Compulsory != 2 {
		t.Fatalf("compulsory = %d, want 2", got.Compulsory)
	}
	if got.Capacity != 0 {
		t.Fatalf("capacity = %d, want 0", got.Capacity)
	}
	if got.Conflict != 20 {
		t.Fatalf("conflict = %d, want 20", got.Conflict)
	}
}

func TestPureCapacity(t *testing.T) {
	// A cyclic working set twice the cache size: after warm-up even the
	// fully-associative reference misses everything (LRU worst case), so
	// the misses are capacity, not conflict.
	const size = 1024
	lines := 2 * size / 32
	var stream []addr.Addr
	for round := 0; round < 4; round++ {
		for i := 0; i < lines; i++ {
			stream = append(stream, addr.Addr(i*32))
		}
	}
	got := countsOf(t, size, reads(stream...))
	if got.Conflict != 0 {
		t.Fatalf("conflict = %d on a pure streaming loop, want 0", got.Conflict)
	}
	if got.Capacity == 0 {
		t.Fatal("no capacity misses on an oversized loop")
	}
	if got.Compulsory != uint64(lines) {
		t.Fatalf("compulsory = %d, want %d", got.Compulsory, lines)
	}
}

func TestClassPartition(t *testing.T) {
	// Classes partition the accesses for an arbitrary stream.
	src := rng.New(3)
	const n = 50000
	stream := make([]cache.MemAccess, n)
	for i := range stream {
		stream[i] = cache.NewMemAccess(addr.Addr(src.Intn(1<<14)), src.Intn(4) == 0)
	}
	got := countsOf(t, 2048, stream)
	if got.Accesses() != n {
		t.Fatalf("accesses = %d, want %d", got.Accesses(), n)
	}
	if got.Misses() != got.Compulsory+got.Capacity+got.Conflict {
		t.Fatal("class totals do not partition misses")
	}
}

// TestBCacheRemovesOnlyConflicts: the core claim in 3C terms — moving
// from the DM baseline to the B-Cache cuts conflict misses while
// compulsory stays identical. One classification serves both caches.
func TestBCacheRemovesOnlyConflicts(t *testing.T) {
	const size = 16384
	src := rng.New(7)
	stream := make([]cache.MemAccess, 300000)
	for i := range stream {
		var a addr.Addr
		if src.Intn(3) == 0 {
			a = addr.Addr(src.Intn(6) * 13 * 32768) // conflicting blocks
		} else {
			a = addr.Addr(0x100000 + src.Intn(8192)) // hot lines
		}
		stream[i] = cache.NewMemAccess(a, false)
	}
	ref, err := New(size/32, 32)
	if err != nil {
		t.Fatal(err)
	}
	classes := ref.Classify(nil, stream)
	counts := func(key string) Counts {
		c, err := cachespec.MustParse(key).New(size, 32)
		if err != nil {
			t.Fatal(err)
		}
		var events []cache.Event
		cache.Replay(c, stream, &events)
		var n Counts
		n.Tally(classes, events)
		return n
	}
	cDM, cBC := counts("dm"), counts("bc:mf8:bas8:pol0")
	if cBC.Compulsory != cDM.Compulsory {
		t.Fatalf("compulsory changed: %d vs %d", cBC.Compulsory, cDM.Compulsory)
	}
	if cBC.Conflict*2 > cDM.Conflict {
		t.Fatalf("B-Cache removed under half the conflicts: %d vs %d", cBC.Conflict, cDM.Conflict)
	}
	if share := float64(cDM.Conflict) / float64(cDM.Misses()); share < 0.5 {
		t.Fatalf("stream not conflict-dominated: share %.2f", share)
	}
}

// TestReferenceMatchesFullyAssoc: the classifier's LRU stack gives,
// access for access, the hit verdict of a fully-associative LRU cache of
// the same capacity, over a stream that touches far more lines than
// either holds.
func TestReferenceMatchesFullyAssoc(t *testing.T) {
	const size, line = 2048, 32
	c, err := New(size/line, line)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := cache.NewFullyAssoc(size, line, cache.LRU, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	hits := 0
	for i := 0; i < 200000; i++ {
		// Lines drawn from 4× the capacity, a third of them from a hot
		// eighth, so the reference both hits and evicts.
		lines := 4 * size / line
		if src.Intn(3) == 0 {
			lines /= 8
		}
		a := addr.Addr(src.Intn(lines)*line + src.Intn(line))
		want := fa.Access(a, src.Intn(4) == 0).Hit
		if got := c.reference(a >> c.blockShift); got != want {
			t.Fatalf("access %d (%#x): reference hit=%v, fully-associative LRU hit=%v", i, a, got, want)
		}
		if want {
			hits++
		}
	}
	if hits == 0 || c.fa.Len() != size/line {
		t.Fatalf("%d hits, %d lines resident: the stream must hit and fill the reference", hits, c.fa.Len())
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	for _, g := range [][2]int{{0, 32}, {512, 0}, {512, 48}} {
		if _, err := New(g[0], g[1]); err == nil {
			t.Errorf("New(%d, %d) accepted", g[0], g[1])
		}
	}
}

// classifyKeys are the caches the fast path is held to the oracle on:
// both of x3c's, a replaying and an Access-looping set-associative
// cache, and a cache whose hits can be events.
var classifyKeys = []string{"dm", "sa:2way:lru", "sa:8way:random", "bc:mf8:bas8:pol0", "victim:16"}

// twoCaches builds key's cache of size bytes twice.
func twoCaches(t *testing.T, key string, size int) (a, b cache.Cache) {
	t.Helper()
	d := cachespec.MustParse(key)
	var err error
	if a, err = d.New(size, 32); err != nil {
		t.Fatal(err)
	}
	if b, err = d.New(size, 32); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// matchOracle runs chunks through key's cache on the fast path and on
// the oracle, and compares their counts after every chunk.
func matchOracle(t *testing.T, key string, oracle *jointOracle, fast *classified, chunks [][]cache.MemAccess) Counts {
	t.Helper()
	done := 0
	for _, chunk := range chunks {
		for _, m := range chunk {
			oracle.access(m.Addr(), m.Write())
		}
		fast.feed(chunk)
		done += len(chunk)
		if fast.counts != oracle.counts {
			t.Fatalf("%s after %d accesses: Classify+Tally %+v, joint Access %+v", key, done, fast.counts, oracle.counts)
		}
	}
	return fast.counts
}

// TestClassifyMatchesAccess holds Classify plus a replay's Tally to the
// joint per-access oracle on every classifyKeys cache, over chunks of
// 0, 1, a few and a full pass's accesses.
func TestClassifyMatchesAccess(t *testing.T) {
	const size = 4096
	src := rng.New(13)
	stream := make([]cache.MemAccess, 40000)
	for i := range stream {
		var a addr.Addr
		switch src.Intn(4) {
		case 0:
			a = addr.Addr(src.Intn(8) * size) // aliasing lines
		case 1:
			a = addr.Addr(0x40000 + src.Intn(64*size)) // far over capacity
		default:
			a = addr.Addr(0x10000 + src.Intn(size/2)) // hot lines
		}
		stream[i] = cache.NewMemAccess(a, src.Intn(4) == 0)
	}
	var chunks [][]cache.MemAccess
	for i, rest := 0, stream; len(rest) > 0; i++ {
		n := min([]int{0, 1, 7, 4096, 13}[i%5], len(rest))
		chunks = append(chunks, rest[:n])
		rest = rest[n:]
	}
	for _, key := range classifyKeys {
		a, b := twoCaches(t, key, size)
		oracle := newJointOracle(t, a)
		fast := newClassified(t, b)
		got := matchOracle(t, key, oracle, fast, chunks)
		if got.Hits == 0 || got.Compulsory == 0 || got.Capacity == 0 || got.Conflict == 0 {
			t.Errorf("%s: counts %+v leave a class empty", key, got)
		}
	}
}

// FuzzClassifyVsAccess: for any stream and chunk split, Classify plus a
// replay's Tally counts what the joint per-access oracle counts, on
// every classifyKeys cache. The first byte picks the cache; each
// following 4-byte word is one access (address in its low 14 bits,
// write in bit 23), and a top byte ≥ 0xF0 ends a chunk before it.
func FuzzClassifyVsAccess(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0xF0, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{3, 0x20, 0x00, 0x80, 0x00, 0x20, 0x10, 0x00, 0xF8, 0x20, 0x20, 0x00, 0x00})
	f.Add([]byte("classify the stream, tally the replay"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		key := classifyKeys[int(data[0])%len(classifyKeys)]
		var chunks [][]cache.MemAccess
		var chunk []cache.MemAccess
		for rest := data[1:]; len(rest) >= 4; rest = rest[4:] {
			w := binary.LittleEndian.Uint32(rest)
			if rest[3] >= 0xF0 {
				chunks = append(chunks, chunk)
				chunk = nil
			}
			chunk = append(chunk, cache.NewMemAccess(addr.Addr(w&(1<<14-1)), w>>23&1 != 0))
		}
		a, b := twoCaches(t, key, 1024)
		oracle := newJointOracle(t, a)
		fast := newClassified(t, b)
		matchOracle(t, key, oracle, fast, append(chunks, chunk))
	})
}
