package bbcache

import (
	"testing"

	"ptlsim/internal/decode"
	"ptlsim/internal/mem"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
)

func mkbb(rip uint64) *decode.BasicBlock {
	return &decode.BasicBlock{RIP: rip}
}

func TestLookupInsert(t *testing.T) {
	tree := stats.NewTree()
	c := New(16, tree, "bb")
	k := Key{RIP: 0x1000, MFN: 5}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("empty cache should miss")
	}
	c.Insert(k, mkbb(0x1000))
	bb, ok := c.Lookup(k)
	if !ok || bb.RIP != 0x1000 {
		t.Fatal("lookup after insert failed")
	}
	if tree.Lookup("bb.hits").Value() != 1 || tree.Lookup("bb.misses").Value() != 1 {
		t.Fatal("hit/miss stats wrong")
	}
}

func TestKeyContextSeparation(t *testing.T) {
	tree := stats.NewTree()
	c := New(16, tree, "bb")
	user := Key{RIP: 0x1000, MFN: 5, Kernel: false}
	kern := Key{RIP: 0x1000, MFN: 5, Kernel: true}
	otherPage := Key{RIP: 0x1000, MFN: 6}
	c.Insert(user, mkbb(0x1000))
	if _, ok := c.Lookup(kern); ok {
		t.Fatal("kernel context must not hit user translation")
	}
	if _, ok := c.Lookup(otherPage); ok {
		t.Fatal("different MFN must not hit")
	}
}

func TestSMCInvalidation(t *testing.T) {
	tree := stats.NewTree()
	c := New(16, tree, "bb")
	c.Insert(Key{RIP: 0x1000, MFN: 5}, mkbb(0x1000))
	c.Insert(Key{RIP: 0x2000, MFN: 5}, mkbb(0x2000))
	c.Insert(Key{RIP: 0x3000, MFN: 7}, mkbb(0x3000))
	if !c.IsCodePage(5) || !c.IsCodePage(7) || c.IsCodePage(9) {
		t.Fatal("code page tracking wrong")
	}
	n := c.InvalidatePage(5)
	if n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if _, ok := c.Lookup(Key{RIP: 0x1000, MFN: 5}); ok {
		t.Fatal("block survived SMC invalidation")
	}
	if _, ok := c.Lookup(Key{RIP: 0x3000, MFN: 7}); !ok {
		t.Fatal("unrelated block was dropped")
	}
	if c.IsCodePage(5) {
		t.Fatal("page still tracked after invalidation")
	}
}

// InvalidateStore drops every code page a store writes — a
// page-crossing store's second page too — and counts the pages.
func TestInvalidateStore(t *testing.T) {
	// Frames 5 and 9 hold code, frame 4 does not; virtually the pages
	// are 0x1000 (frame 4), 0x2000 (5) and 0x3000 (9).
	cases := []struct {
		name  string
		store mem.Store
		want  int
		gone  []uint64 // frames whose blocks the store drops
		kept  []uint64
	}{
		{"inside one page", mem.Store{VA: 0x2100, PA: 5<<12 | 0x100, Val: 1, Size: 8}, 1, []uint64{5}, []uint64{9}},
		{"data page into code page", mem.Store{VA: 0x1FFC, PA: 4<<12 | 0xFFC, PA2: 5 << 12, Val: 1, Size: 8}, 1, []uint64{5}, []uint64{9}},
		{"code page into code page", mem.Store{VA: 0x2FFC, PA: 5<<12 | 0xFFC, PA2: 9 << 12, Val: 1, Size: 8}, 2, []uint64{5, 9}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := stats.NewTree()
			c := New(16, tree, "bb")
			for _, mfn := range []uint64{5, 9} {
				c.Insert(Key{RIP: mfn << 12, MFN: mfn}, mkbb(mfn<<12))
			}
			if n := c.InvalidateStore(tc.store); n != tc.want {
				t.Errorf("InvalidateStore dropped %d code pages, want %d", n, tc.want)
			}
			for _, mfn := range tc.gone {
				if _, ok := c.Lookup(Key{RIP: mfn << 12, MFN: mfn}); ok || c.IsCodePage(mfn) {
					t.Errorf("frame %d's block survived the store", mfn)
				}
			}
			for _, mfn := range tc.kept {
				if _, ok := c.Lookup(Key{RIP: mfn << 12, MFN: mfn}); !ok {
					t.Errorf("frame %d's block was dropped by a store that does not touch it", mfn)
				}
			}
			if got := tree.Lookup("bb.smc_flushes").Value(); got != int64(tc.want) {
				t.Errorf("bb.smc_flushes = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestPageCrossingBlockTracksBothPages(t *testing.T) {
	tree := stats.NewTree()
	c := New(16, tree, "bb")
	k := Key{RIP: 0x1FFA, MFN: 5}
	c.insert(k, entry{bb: mkbb(0x1FFA), mfn2: 6})
	if !c.IsCodePage(5) || !c.IsCodePage(6) {
		t.Fatal("both pages must be tracked")
	}
	// Invalidating the second page kills the block.
	if n := c.InvalidatePage(6); n != 1 {
		t.Fatalf("invalidated %d", n)
	}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("block survived invalidation of its second page")
	}
	if c.IsCodePage(5) {
		t.Fatal("stale tracking on first page")
	}
}

func TestCapacityFlush(t *testing.T) {
	tree := stats.NewTree()
	c := New(4, tree, "bb")
	for i := uint64(0); i < 5; i++ {
		c.Insert(Key{RIP: 0x1000 * i, MFN: i}, mkbb(0x1000*i))
	}
	if c.Len() > 4 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

func TestFlush(t *testing.T) {
	tree := stats.NewTree()
	c := New(16, tree, "bb")
	c.Insert(Key{RIP: 1, MFN: 1}, mkbb(1))
	c.Flush()
	if c.Len() != 0 || c.IsCodePage(1) {
		t.Fatal("flush incomplete")
	}
}

// The front is a strict subset of the map: whatever removes or
// replaces a block must take it out of the front too. Each case first
// looks the key up (which puts it in the front) and then removes it.
func TestFrontNeverOutlivesTheMap(t *testing.T) {
	c := New(4, stats.NewTree(), "bb")
	k := Key{RIP: 0x1000, MFN: 5}
	warm := func() *decode.BasicBlock {
		t.Helper()
		bb := mkbb(k.RIP)
		c.Insert(k, bb)
		for i := 0; i < 2; i++ {
			if got, ok := c.Lookup(k); !ok || got != bb {
				t.Fatal("lookup after insert failed")
			}
		}
		return bb
	}

	warm()
	c.InvalidatePage(5)
	if _, ok := c.Lookup(k); ok {
		t.Fatal("block served after its page was invalidated")
	}

	warm()
	c.Flush()
	if _, ok := c.Lookup(k); ok {
		t.Fatal("block served after Flush")
	}

	old := warm()
	repl := mkbb(k.RIP)
	c.Insert(k, repl)
	if got, ok := c.Lookup(k); !ok || got != repl || got == old {
		t.Fatal("lookup after a second Insert over the key did not return the new block")
	}

	// Flush-when-full: capacity 4, k plus three more fill it, the
	// next Insert empties everything first.
	c.Flush()
	warm()
	for i := uint64(1); i <= 4; i++ {
		c.Insert(Key{RIP: 0x2000 * i, MFN: 9}, mkbb(0x2000*i))
	}
	if _, ok := c.Lookup(k); ok {
		t.Fatal("block served after the flush-when-full")
	}
	if c.Len() != 1 {
		t.Fatalf("%d blocks after the flush-when-full, want 1", c.Len())
	}

	// A page-crossing block is cached under the key it is looked up
	// with, and hits while its second page maps to the frame it was
	// decoded from. Remapping that page must turn the front's copy into
	// a miss too, and the rebuilt block replaces the old one.
	cross := Key{RIP: 0x1FFA, MFN: 5}
	code := &twoPages{mfn: [2]uint64{5, 6}}
	first, fault := c.Get(cross, code)
	if fault != uops.FaultNone {
		t.Fatal(fault)
	}
	if got, _ := c.Get(cross, code); got != first {
		t.Fatal("a page-crossing block missed with both pages mapped as decoded")
	}
	code.mfn[1] = 7
	if got, _ := c.Get(cross, code); got == first {
		t.Fatal("a page-crossing block hit after its second page was remapped")
	}
	if c.IsCodePage(6) || !c.IsCodePage(7) {
		t.Fatal("the rebuilt block's second page is not the one tracked")
	}
}

// twoPages is a Code with nops on two consecutive virtual pages, 0x1000
// and 0x2000, mapped to the frames in mfn.
type twoPages struct{ mfn [2]uint64 }

func (p *twoPages) FetchCode(va uint64, buf []byte) (int, uops.Fault) {
	if va < 0x1000 || va >= 0x3000 {
		return 0, uops.FaultPageExec
	}
	n := min(len(buf), int(0x3000-va))
	for i := range buf[:n] {
		buf[i] = 0x90
	}
	return n, uops.FaultNone
}

func (p *twoPages) Translate(va uint64, write, exec bool) (uint64, uops.Fault) {
	if va < 0x1000 || va >= 0x3000 {
		return 0, uops.FaultPageExec
	}
	return p.mfn[va>>12-1]<<12 | va&0xFFF, uops.FaultNone
}

// The four counters are part of core.stats_fnv32, hence of
// benchmark/golden.json: a front hit counts exactly as a map hit. The
// expected values are what the map-only cache (the parent commit)
// counts over this same sequence.
func TestCountersUnchangedByFront(t *testing.T) {
	tree := stats.NewTree()
	c := New(6, tree, "bb")
	keys := make([]Key, 12)
	for i := range keys {
		keys[i] = Key{RIP: 0x1000 + uint64(i)*0x40, MFN: uint64(3 + i/4), Kernel: i%2 == 0}
	}
	look := func(ks ...Key) {
		for _, k := range ks {
			c.Lookup(k)
		}
	}
	look(keys[:6]...) // 6 misses
	for _, k := range keys[:6] {
		c.Insert(k, mkbb(k.RIP))
	}
	for i := 0; i < 5; i++ {
		look(keys[:6]...) // 30 hits, all but the first round front hits
	}
	c.InvalidatePage(3) // keys 0-3: 4 invalidations, 1 SMC flush
	c.InvalidatePage(7) // no code there: nothing counted
	look(keys[:6]...)   // 4 misses, 2 hits
	for _, k := range keys[6:] {
		look(k) // 6 misses
		c.Insert(k, mkbb(k.RIP))
	} // the fifth of these Inserts finds 6 blocks and flushes everything
	look(keys...)       // keys 10 and 11 survive: 10 misses, 2 hits
	c.InvalidatePage(5) // keys 8-11, two present: 2 invalidations, 1 SMC flush
	look(keys[11])      // 1 miss
	want := map[string]int64{"bb.hits": 34, "bb.misses": 27, "bb.invalidations": 6, "bb.smc_flushes": 2}
	for path, v := range want {
		if got := tree.Lookup(path).Value(); got != v {
			t.Errorf("%s = %d, want %d", path, got, v)
		}
	}
}

func TestFrontHitDoesNotAllocate(t *testing.T) {
	c := New(16, stats.NewTree(), "bb")
	k := Key{RIP: 0x1000, MFN: 5, Kernel: true}
	c.Insert(k, mkbb(k.RIP))
	c.Lookup(k)
	if f := c.frontSlot(k); f.key != k || f.bb == nil {
		t.Fatal("a lookup that hit the map did not fill the front")
	}
	if n := testing.AllocsPerRun(100, func() { c.Lookup(k) }); n != 0 {
		t.Fatalf("%v allocations per front hit", n)
	}
}
