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
	"ptlsim/internal/stats"
)

// Key identifies a cached translation. Two contexts with the same RIP
// but different page mappings or privilege must not share decoded code.
type Key struct {
	RIP    uint64
	MFN    uint64 // machine frame of the first code byte
	MFN2   uint64 // machine frame of the last byte (0 if same/absent)
	Kernel bool   // CPL 0 vs CPL 3 context
}

// frontEntries is the size of the direct-mapped front of the block
// map (20 KiB; the rsync guest has under 400 distinct blocks).
const frontEntries = 512

// frontEntry is one slot of the front: a key and the block the map
// holds for it (nil: empty slot).
type frontEntry struct {
	key Key
	bb  *decode.BasicBlock
}

// Cache is the basic block cache.
type Cache struct {
	blocks map[Key]*decode.BasicBlock
	byPage map[uint64]map[Key]struct{} // MFN -> keys with code on it

	// front holds recently looked-up entries of blocks, so that a
	// lookup of a hot key is a struct compare instead of hashing the
	// 25-byte Key. It is a strict subset of blocks: whatever removes or
	// replaces a map entry drops its slot here, and a front hit counts
	// in hits exactly as a map hit does.
	front [frontEntries]frontEntry

	capacity int

	hits, misses, invalidations, smcFlushes *stats.Counter
}

// New builds a basic block cache holding up to capacity blocks
// (evicting everything when full, like PTLsim's periodic flush).
func New(capacity int, tree *stats.Tree, prefix string) *Cache {
	return &Cache{
		blocks:        make(map[Key]*decode.BasicBlock),
		byPage:        make(map[uint64]map[Key]struct{}),
		capacity:      capacity,
		hits:          tree.Counter(prefix + ".hits"),
		misses:        tree.Counter(prefix + ".misses"),
		invalidations: tree.Counter(prefix + ".invalidations"),
		smcFlushes:    tree.Counter(prefix + ".smc_flushes"),
	}
}

// Lookup returns the cached block for key, if present.
func (c *Cache) Lookup(key Key) (*decode.BasicBlock, bool) {
	f := c.frontSlot(key)
	if f.bb != nil && f.key == key {
		c.hits.Inc()
		return f.bb, true
	}
	bb, ok := c.blocks[key]
	if ok {
		c.hits.Inc()
		*f = frontEntry{key: key, bb: bb}
	} else {
		c.misses.Inc()
	}
	return bb, ok
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

// Insert caches bb under key, registering its code pages for SMC
// tracking.
func (c *Cache) Insert(key Key, bb *decode.BasicBlock) {
	if len(c.blocks) >= c.capacity {
		// Full flush: simple and safe (decode cost is a simulator
		// overhead, not a modeled latency).
		c.Flush()
	}
	c.dropFront(key)
	c.blocks[key] = bb
	c.track(key.MFN, key)
	if key.MFN2 != 0 && key.MFN2 != key.MFN {
		c.track(key.MFN2, key)
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

// IsCodePage reports whether any cached block has code bytes on mfn —
// the SMC store-side check every committed store performs.
func (c *Cache) IsCodePage(mfn uint64) bool {
	_, ok := c.byPage[mfn]
	return ok
}

// InvalidatePage drops every cached block with code on mfn (a store
// hit a code page). Returns the number of blocks invalidated.
func (c *Cache) InvalidatePage(mfn uint64) int {
	set, ok := c.byPage[mfn]
	if !ok {
		return 0
	}
	c.smcFlushes.Inc()
	n := 0
	for key := range set {
		if _, present := c.blocks[key]; present {
			delete(c.blocks, key)
			c.dropFront(key)
			n++
			c.invalidations.Inc()
		}
		// Remove from the other page's tracking set too.
		other := key.MFN
		if other == mfn {
			other = key.MFN2
		}
		if other != 0 && other != mfn {
			if oset := c.byPage[other]; oset != nil {
				delete(oset, key)
				if len(oset) == 0 {
					delete(c.byPage, other)
				}
			}
		}
	}
	delete(c.byPage, mfn)
	return n
}

// Flush empties the cache (mode switches that change decode context,
// e.g. paging reconfiguration).
func (c *Cache) Flush() {
	c.blocks = make(map[Key]*decode.BasicBlock)
	c.byPage = make(map[uint64]map[Key]struct{})
	c.front = [frontEntries]frontEntry{}
}

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return len(c.blocks) }
