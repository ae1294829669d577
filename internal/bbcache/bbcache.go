// Package bbcache implements the basic block cache: decoded uop
// sequences keyed by far more than the RIP, as full system simulation
// requires — the virtual address, the machine frame the code starts on
// (and ends on, for page-crossing blocks), and privilege context. It
// tracks which machine pages contain cached code so self-modifying code
// (SMC) can invalidate precisely the affected translations, and the
// core can flush in-flight instructions from overwritten pages.
//
// The cache is a simulator speed optimization only: it never changes
// architecturally visible behavior (the paper's §2.1).
package bbcache

import (
	"ptlsim/internal/decode"
	"ptlsim/internal/mem"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
)

// Key identifies a cached translation. Two contexts with the same RIP
// but different page mappings or privilege must not share decoded code.
// A block whose code runs onto a second page is cached under the same
// key; the frame of that page is kept with the entry and checked on
// every hit (Get), so a remapped second page misses.
type Key struct {
	RIP    uint64
	MFN    uint64 // machine frame of the first code byte
	Kernel bool   // CPL 0 vs CPL 3 context
}

// Code is what Get needs from the context a block runs in: its code
// bytes, and the frame a code address maps to now (vm.Context has
// both).
type Code interface {
	FetchCode(va uint64, buf []byte) (int, uops.Fault)
	Translate(va uint64, write, exec bool) (uint64, uops.Fault)
}

// frontEntries is the size of the direct-mapped front of the block
// map (20 KiB; the rsync guest has under 400 distinct blocks).
const frontEntries = 512

// entry is a cached block and the frame of its second page (0: the
// block lies on one page).
type entry struct {
	bb   *decode.BasicBlock
	mfn2 uint64
}

// frontEntry is one slot of the front: a key and the entry the map
// holds for it (nil bb: empty slot).
type frontEntry struct {
	key Key
	entry
}

// Cache is the basic block cache.
type Cache struct {
	blocks map[Key]entry
	byPage map[uint64]map[Key]struct{} // MFN -> keys with code on it

	// front holds recently looked-up entries of blocks, so that a
	// lookup of a hot key is a struct compare instead of hashing the
	// 25-byte Key. It is a strict subset of blocks: whatever removes or
	// replaces a map entry drops its slot here, and a front hit counts
	// in hits exactly as a map hit does.
	front [frontEntries]frontEntry

	// arena holds the blocks Get decodes. Its chunks are dropped on
	// Flush and InvalidatePage and never reused, because in-flight
	// out-of-order uops may still point into them.
	arena *decode.Arena

	capacity int

	// gen moves whenever a key's block may stop being the one Get
	// returns for it: on InvalidatePage, Flush (the flush when full
	// too) and an insert that replaces a key's block.
	gen uint64

	hits, misses, invalidations, smcFlushes *stats.Counter
}

// New builds a basic block cache holding up to capacity blocks
// (evicting everything when full, like PTLsim's periodic flush).
func New(capacity int, tree *stats.Tree, prefix string) *Cache {
	return &Cache{
		blocks:        make(map[Key]entry),
		byPage:        make(map[uint64]map[Key]struct{}),
		arena:         decode.NewArena(),
		capacity:      capacity,
		hits:          tree.Counter(prefix + ".hits"),
		misses:        tree.Counter(prefix + ".misses"),
		invalidations: tree.Counter(prefix + ".invalidations"),
		smcFlushes:    tree.Counter(prefix + ".smc_flushes"),
	}
}

// Lookup returns the block cached under key, if present, without
// checking a page-crossing block's second page (the engines fetch
// through Get, which does).
func (c *Cache) Lookup(key Key) (*decode.BasicBlock, bool) {
	e, ok := c.find(key)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return e.bb, ok
}

// Gen returns the cache's generation.
func (c *Cache) Gen() uint64 { return c.gen }

// Linked reports whether a block Get returned at generation gen is
// still what it returns for the key, counting the hit Get would if so.
func (c *Cache) Linked(gen uint64) bool {
	if gen != c.gen {
		return false
	}
	c.hits.Inc()
	return true
}

// Get returns the block at key.RIP for a context whose code maps as
// code says. A cached block hits if it lies on one page, or if its
// last byte is still on the frame it was decoded from; otherwise Get
// counts a miss, decodes the block and caches it under key. A fault
// fetching the block's first instruction is returned and nothing is
// cached.
func (c *Cache) Get(key Key, code Code) (*decode.BasicBlock, uops.Fault) {
	if e, ok := c.find(key); ok && (e.mfn2 == 0 || e.mfn2 == endFrame(e.bb, code)) {
		c.hits.Inc()
		return e.bb, uops.FaultNone
	}
	c.misses.Inc()
	bb, fault := c.arena.Build(code.FetchCode, key.RIP)
	if fault != uops.FaultNone {
		return nil, fault
	}
	mfn2 := endFrame(bb, code)
	if mfn2 == key.MFN {
		mfn2 = 0
	}
	c.insert(key, entry{bb: bb, mfn2: mfn2})
	return bb, uops.FaultNone
}

// endFrame returns the frame bb's last code byte maps to under code (0
// if it does not map).
func endFrame(bb *decode.BasicBlock, code Code) uint64 {
	pa, fault := code.Translate(bb.RIP+bb.X86Len-1, false, true)
	if fault != uops.FaultNone {
		return 0
	}
	return pa >> mem.PageShift
}

// find returns the entry cached under key, through the front.
func (c *Cache) find(key Key) (entry, bool) {
	f := c.frontSlot(key)
	if f.bb != nil && f.key == key {
		return f.entry, true
	}
	e, ok := c.blocks[key]
	if ok {
		*f = frontEntry{key: key, entry: e}
	}
	return e, ok
}

// frontSlot returns the one front slot key can occupy. The frame
// number is folded in so that processes running the same virtual
// addresses do not share slots.
func (c *Cache) frontSlot(key Key) *frontEntry {
	return &c.front[(key.RIP^key.RIP>>9^key.MFN<<4)&(frontEntries-1)]
}

// dropFront empties key's front slot if key is what it holds.
func (c *Cache) dropFront(key Key) {
	if f := c.frontSlot(key); f.key == key {
		*f = frontEntry{}
	}
}

// Insert caches bb under key as a block on one page, registering its
// code page for SMC tracking.
func (c *Cache) Insert(key Key, bb *decode.BasicBlock) {
	c.insert(key, entry{bb: bb})
}

// insert caches e under key, registering its code pages for SMC
// tracking.
func (c *Cache) insert(key Key, e entry) {
	if len(c.blocks) >= c.capacity {
		// Full flush: simple and safe (decode cost is a simulator
		// overhead, not a modeled latency).
		c.Flush()
	}
	if old, ok := c.blocks[key]; ok {
		c.gen++
		if old.mfn2 != 0 && old.mfn2 != e.mfn2 {
			c.untrack(old.mfn2, key)
		}
	}
	c.dropFront(key)
	c.blocks[key] = e
	c.track(key.MFN, key)
	if e.mfn2 != 0 {
		c.track(e.mfn2, key)
	}
}

func (c *Cache) track(mfn uint64, key Key) {
	set := c.byPage[mfn]
	if set == nil {
		set = make(map[Key]struct{})
		c.byPage[mfn] = set
	}
	set[key] = struct{}{}
}

// untrack removes key from mfn's tracking set.
func (c *Cache) untrack(mfn uint64, key Key) {
	if set := c.byPage[mfn]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(c.byPage, mfn)
		}
	}
}

// IsCodePage reports whether any cached block has code bytes on mfn.
func (c *Cache) IsCodePage(mfn uint64) bool {
	_, ok := c.byPage[mfn]
	return ok
}

// InvalidateStore is the store-side SMC check every committed store
// performs, on both engines: it drops the cached blocks of every code
// page s writes (its second page too, if it crosses onto one) and
// returns how many code pages it dropped.
func (c *Cache) InvalidateStore(s mem.Store) int {
	n := c.invalidateCode(s.PA >> mem.PageShift)
	if s.Crosses() {
		n += c.invalidateCode(s.PA2 >> mem.PageShift)
	}
	return n
}

// invalidateCode drops mfn's blocks if it is a code page and reports
// whether it was (1) or not (0).
func (c *Cache) invalidateCode(mfn uint64) int {
	if !c.IsCodePage(mfn) {
		return 0
	}
	c.InvalidatePage(mfn)
	return 1
}

// InvalidatePage drops every cached block with code on mfn (a store
// hit a code page). Returns the number of blocks invalidated.
func (c *Cache) InvalidatePage(mfn uint64) int {
	set, ok := c.byPage[mfn]
	if !ok {
		return 0
	}
	c.smcFlushes.Inc()
	c.gen++
	n := 0
	for key := range set {
		e, present := c.blocks[key]
		if !present {
			continue
		}
		delete(c.blocks, key)
		c.dropFront(key)
		n++
		c.invalidations.Inc()
		// Remove from the other page's tracking set too.
		other := key.MFN
		if other == mfn {
			other = e.mfn2
		}
		if other != 0 && other != mfn {
			c.untrack(other, key)
		}
	}
	delete(c.byPage, mfn)
	c.arena.Drop()
	return n
}

// Flush empties the cache (mode switches that change decode context,
// e.g. paging reconfiguration).
func (c *Cache) Flush() {
	c.blocks = make(map[Key]entry)
	c.byPage = make(map[uint64]map[Key]struct{})
	c.front = [frontEntries]frontEntry{}
	c.arena.Drop()
	c.gen++
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return len(c.blocks) }
