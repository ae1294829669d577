package cache

import (
	"fmt"

	"ptlsim/internal/stats"
)

// HierarchyConfig describes a per-core cache hierarchy. L3 may have
// Size 0 to disable it (the K8 configuration in Table 1 is L1+L2).
type HierarchyConfig struct {
	L1D, L1I, L2, L3 Config
	MemLatency       uint64
	MSHRs            int  // outstanding line misses per hierarchy
	Prefetch         bool // simple tagged next-line prefetcher on L1D misses
}

// Validate checks every configured level's geometry.
func (cfg HierarchyConfig) Validate() error {
	if err := cfg.L1D.Validate("l1d"); err != nil {
		return err
	}
	if err := cfg.L1I.Validate("l1i"); err != nil {
		return err
	}
	if err := cfg.L2.Validate("l2"); err != nil {
		return err
	}
	if cfg.L3.Size > 0 {
		if err := cfg.L3.Validate("l3"); err != nil {
			return err
		}
	}
	return nil
}

// DefaultHierarchy is a generic modern three-level configuration.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1D:        Config{Size: 32 << 10, Assoc: 8, LineSize: 64, Latency: 4},
		L1I:        Config{Size: 32 << 10, Assoc: 8, LineSize: 64, Latency: 1},
		L2:         Config{Size: 512 << 10, Assoc: 8, LineSize: 64, Latency: 12},
		L3:         Config{Size: 8 << 20, Assoc: 16, LineSize: 64, Latency: 30},
		MemLatency: 180,
		MSHRs:      16,
	}
}

// K8Hierarchy matches the Table 1 configuration: 64 KB 2-way L1 D and
// I caches with 8 banks, a 1 MB 16-way L2 10 cycles away, no L3, and
// main memory 112 cycles away.
func K8Hierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1D:        Config{Size: 64 << 10, Assoc: 2, LineSize: 64, Latency: 3, Banks: 8},
		L1I:        Config{Size: 64 << 10, Assoc: 2, LineSize: 64, Latency: 1},
		L2:         Config{Size: 1 << 20, Assoc: 16, LineSize: 64, Latency: 10},
		MemLatency: 112,
		MSHRs:      8,
	}
}

// Level identifies where an access was satisfied.
type Level uint8

// Hit levels.
const (
	LevelL1 Level = 1
	LevelL2 Level = 2
	LevelL3 Level = 3
	LevelMem Level = 4
)

// Result describes the timing outcome of a cache access.
type Result struct {
	Ready uint64 // cycle at which data is available
	Level Level  // level that satisfied the access
	MSHRMerged bool // folded into an outstanding miss for the same line
}

// mshr tracks one outstanding line miss.
type mshr struct {
	line  uint64
	ready uint64
}

// mshrSet holds the outstanding misses the way mshrAlloc asks for them:
// a binary min-heap on completion time (retire what has completed, find
// the earliest free buffer) and an open-addressing index by line (merge
// a miss into an outstanding one). It stores what the model says and
// nothing else: cfg.MSHRs does not bound it, because a request beyond
// the limit is not refused but queued behind the earliest completion,
// and completed entries stay until the next allocation retires them —
// a store sweep holds a few hundred entries with eight buffers
// configured. Both arrays are sized for that when the hierarchy is built
// and double only past it, so a run allocates nothing here.
type mshrSet struct {
	heap []mshr
	// index has a power-of-two number of slots, at least twice as many as
	// there are entries; a used slot holds line|1 (lines are aligned, so
	// bit 0 is free to mean "used") and linear probing resolves
	// collisions.
	index []mshr
	// latest is the latest completion time ever entered (until Flush):
	// the L1-hit path probes for a fill in flight only before it.
	latest uint64
}

// mshrSetEntries is the occupancy the set is built for.
const mshrSetEntries = 512

func newMSHRSet() mshrSet {
	return mshrSet{heap: make([]mshr, 0, mshrSetEntries), index: make([]mshr, 2*mshrSetEntries)}
}

func (s *mshrSet) slot(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> 32 & uint64(len(s.index)-1))
}

// find returns the completion time of the outstanding miss on line.
func (s *mshrSet) find(line uint64) (ready uint64, ok bool) {
	for i := s.slot(line); s.index[i].line != 0; i = (i + 1) & (len(s.index) - 1) {
		if s.index[i].line == line|1 {
			return s.index[i].ready, true
		}
	}
	return 0, false
}

// add enters a miss on a line that has none outstanding.
func (s *mshrSet) add(m mshr) {
	if 2*(len(s.heap)+1) > len(s.index) {
		old := s.index
		s.index = make([]mshr, 2*len(old))
		for _, e := range old {
			if e.line != 0 {
				s.indexPut(e)
			}
		}
	}
	s.indexPut(mshr{line: m.line | 1, ready: m.ready})
	s.latest = max(s.latest, m.ready)
	h := append(s.heap, m)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].ready <= h[i].ready {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.heap = h
}

func (s *mshrSet) indexPut(e mshr) {
	i := s.slot(e.line &^ 1)
	for s.index[i].line != 0 {
		i = (i + 1) & (len(s.index) - 1)
	}
	s.index[i] = e
}

// retireEarliest removes the entry that completes first.
func (s *mshrSet) retireEarliest() {
	// Delete from the index, moving later entries of the probe run back
	// over the hole unless that would put them before their home slot.
	mask := len(s.index) - 1
	i := s.slot(s.heap[0].line)
	for s.index[i].line != s.heap[0].line|1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j].line != 0; j = (j + 1) & mask {
		if home := s.slot(s.index[j].line &^ 1); (j-home)&mask >= (j-i)&mask {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = mshr{}

	h := s.heap
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= last {
			break
		}
		if r := m + 1; r < last && h[r].ready < h[m].ready {
			m = r
		}
		if h[i].ready <= h[m].ready {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.heap = h
}

func (s *mshrSet) clear() {
	s.heap = s.heap[:0]
	clear(s.index)
	s.latest = 0
}

// audit checks the set against itself: heap order, completion times
// set, every heap entry indexed under its line with the same completion
// time, and nothing else in the index — so no two entries share a line.
func (s *mshrSet) audit() error {
	for i, m := range s.heap {
		if m.ready == 0 {
			return fmt.Errorf("mshr %d: zero completion time for line %#x", i, m.line)
		}
		if i > 0 && s.heap[(i-1)/2].ready > m.ready {
			return fmt.Errorf("mshr %d: completion order broken (%d below %d)", i, m.ready, s.heap[(i-1)/2].ready)
		}
		if ready, ok := s.find(m.line); !ok || ready != m.ready {
			return fmt.Errorf("mshr %d: line %#x completing at %d is indexed as (%d, %v)", i, m.line, m.ready, ready, ok)
		}
	}
	used := 0
	for _, e := range s.index {
		if e.line != 0 {
			used++
		}
	}
	if used != len(s.heap) {
		return fmt.Errorf("mshr: %d lines indexed for %d outstanding misses (duplicate or stale line)", used, len(s.heap))
	}
	return nil
}

// Hierarchy is one core's cache hierarchy with miss buffers and an
// optional coherence controller shared between cores.
type Hierarchy struct {
	cfg HierarchyConfig
	l1d *Cache
	l1i *Cache
	l2  *Cache
	l3  *Cache

	mshrs mshrSet

	coh    Controller // may be nil (single core, no coherence)
	coreID int

	prefetchLast uint64 // last line missed, for tagged next-line detection

	// respDelayUntil, when nonzero, stretches every access completing
	// earlier to that cycle — the fault-injection model of a hung or
	// slow memory device (see internal/faultinject).
	respDelayUntil uint64

	// Statistics.
	l1dAccess, l1dMiss   *stats.Counter
	l1iAccess, l1iMiss   *stats.Counter
	l2Access, l2Miss     *stats.Counter
	l3Access, l3Miss     *stats.Counter
	memAccess            *stats.Counter
	mshrMerges, wbCount  *stats.Counter
	prefetches           *stats.Counter
	bankConflictsCounter *stats.Counter
}

// NewHierarchy builds a hierarchy, registering statistics under
// prefix (e.g. "core0.cache") in tree.
func NewHierarchy(cfg HierarchyConfig, tree *stats.Tree, prefix string) *Hierarchy {
	h := &Hierarchy{
		cfg: cfg,
		l1d: NewCache(cfg.L1D),
		l1i: NewCache(cfg.L1I),
		l2:  NewCache(cfg.L2),

		mshrs: newMSHRSet(),
	}
	if cfg.L3.Size > 0 {
		h.l3 = NewCache(cfg.L3)
	}
	if cfg.MSHRs <= 0 {
		h.cfg.MSHRs = 8
	}
	h.l1dAccess = tree.Counter(prefix + ".l1d.accesses")
	h.l1dMiss = tree.Counter(prefix + ".l1d.misses")
	h.l1iAccess = tree.Counter(prefix + ".l1i.accesses")
	h.l1iMiss = tree.Counter(prefix + ".l1i.misses")
	h.l2Access = tree.Counter(prefix + ".l2.accesses")
	h.l2Miss = tree.Counter(prefix + ".l2.misses")
	h.l3Access = tree.Counter(prefix + ".l3.accesses")
	h.l3Miss = tree.Counter(prefix + ".l3.misses")
	h.memAccess = tree.Counter(prefix + ".mem.accesses")
	h.mshrMerges = tree.Counter(prefix + ".mshr.merges")
	h.wbCount = tree.Counter(prefix + ".writebacks")
	h.prefetches = tree.Counter(prefix + ".prefetches")
	h.bankConflictsCounter = tree.Counter(prefix + ".l1d.bank_conflicts")
	return h
}

// AttachCoherence links the hierarchy to a shared coherence controller
// as the given core.
func (h *Hierarchy) AttachCoherence(c Controller, coreID int) {
	h.coh = c
	h.coreID = coreID
	c.Register(coreID, h)
}

// L1D exposes the level-1 data cache (for bank queries and tests).
func (h *Hierarchy) L1D() *Cache { return h.l1d }

// L1I exposes the level-1 instruction cache.
func (h *Hierarchy) L1I() *Cache { return h.l1i }

// L2 exposes the unified level-2 cache.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// CountBankConflict records an L1D bank conflict replay (detected by
// the core's load/store units).
func (h *Hierarchy) CountBankConflict() { h.bankConflictsCounter.Inc() }

// Flush empties all levels (used by -perfctr style cold-start runs).
func (h *Hierarchy) Flush() {
	h.l1d.Flush()
	h.l1i.Flush()
	h.l2.Flush()
	if h.l3 != nil {
		h.l3.Flush()
	}
	h.mshrs.clear()
}

// mshrAlloc merges a miss into an outstanding one for the same line, or
// allocates a new MSHR. Returns the completion cycle and whether it was
// merged. now need not grow from call to call (a page walk asks at the
// future cycle its previous level returns): an entry is retired by the
// first allocation whose now has reached its completion time, and by
// nothing else.
func (h *Hierarchy) mshrAlloc(lineAddr, now, fillLatency uint64) (uint64, bool) {
	s := &h.mshrs
	for len(s.heap) > 0 && s.heap[0].ready <= now {
		s.retireEarliest()
	}
	if ready, ok := s.find(lineAddr); ok {
		h.mshrMerges.Inc()
		return ready, true
	}
	start := now
	if len(s.heap) >= h.cfg.MSHRs {
		// All miss buffers busy: the request waits for the earliest
		// free slot (structural hazard).
		start = s.heap[0].ready
	}
	ready := start + fillLatency
	s.add(mshr{line: lineAddr, ready: ready})
	return ready, false
}

// mshrInFlight is the L1-hit path's merge: if the line's fill is still
// outstanding after cycle ready, the hit completes with it. Nearly every
// hit finds nothing outstanding that late; that test is all the compiler
// inlines into the access path, the probe is a call.
func (h *Hierarchy) mshrInFlight(lineAddr, ready uint64) (uint64, bool) {
	if ready >= h.mshrs.latest {
		return 0, false
	}
	return h.mshrProbe(lineAddr, ready)
}

func (h *Hierarchy) mshrProbe(lineAddr, ready uint64) (uint64, bool) {
	fill, ok := h.mshrs.find(lineAddr)
	if !ok || fill <= ready {
		return 0, false
	}
	h.mshrMerges.Inc()
	return fill, true
}

// access is the shared lookup path for loads, stores and fetches,
// applying the injected response delay (if armed) on top of the
// modeled timing.
func (h *Hierarchy) access(pa uint64, now uint64, write, ifetch bool) Result {
	r := h.accessTimed(pa, now, write, ifetch)
	if r.Ready < h.respDelayUntil {
		r.Ready = h.respDelayUntil
	}
	return r
}

// accessTimed computes the un-injected timing outcome.
func (h *Hierarchy) accessTimed(pa uint64, now uint64, write, ifetch bool) Result {
	l1 := h.l1d
	acc, miss := h.l1dAccess, h.l1dMiss
	if ifetch {
		l1 = h.l1i
		acc, miss = h.l1iAccess, h.l1iMiss
	}
	acc.Inc()
	lineAddr := l1.LineAddr(pa)

	if st, ok := l1.Touch(pa); ok {
		ready := now + l1.cfg.Latency
		// A hit on a line whose fill is still in flight completes when
		// the outstanding MSHR does (miss merging).
		fill, merged := h.mshrInFlight(lineAddr, ready)
		if merged {
			ready = fill
		}
		if write && (st == Shared || st == Owned) && h.coh != nil {
			// Upgrade: invalidate other sharers.
			lat := h.coh.Upgrade(h.coreID, lineAddr, now)
			l1.SetState(pa, Modified)
			return Result{Ready: ready + lat, Level: LevelL1, MSHRMerged: merged}
		}
		if write {
			l1.SetState(pa, Modified)
		}
		return Result{Ready: ready, Level: LevelL1, MSHRMerged: merged}
	}
	miss.Inc()

	// Determine fill latency by probing deeper levels.
	var fillLat uint64
	var level Level
	h.l2Access.Inc()
	if _, ok := h.l2.Touch(pa); ok {
		fillLat = h.l2.cfg.Latency
		level = LevelL2
	} else {
		h.l2Miss.Inc()
		if h.l3 != nil {
			h.l3Access.Inc()
			if _, ok := h.l3.Touch(pa); ok {
				fillLat = h.l2.cfg.Latency + h.l3.cfg.Latency
				level = LevelL3
			} else {
				h.l3Miss.Inc()
				h.memAccess.Inc()
				fillLat = h.l2.cfg.Latency + h.l3.cfg.Latency + h.cfg.MemLatency
				level = LevelMem
			}
		} else {
			h.memAccess.Inc()
			fillLat = h.l2.cfg.Latency + h.cfg.MemLatency
			level = LevelMem
		}
	}

	// Coherence: fetching from another core's cache may be faster or
	// slower than memory and invalidates/downgrades remote copies.
	var cohLat uint64
	newState := Exclusive
	if h.coh != nil {
		var remote bool
		cohLat, remote = h.coh.Fetch(h.coreID, lineAddr, write, now)
		if remote && level == LevelMem {
			// Cache-to-cache transfer instead of memory access.
			fillLat = h.l2.cfg.Latency + cohLat
		}
		if write {
			newState = Modified
		} else if remote {
			newState = Shared
		}
	} else if write {
		newState = Modified
	}

	ready, merged := h.mshrAlloc(lineAddr, now+l1.cfg.Latency, fillLat)

	// Fill L1 (and L2/L3 inclusively).
	if ev := l1.Fill(pa, newState); ev.Valid && (ev.State == Modified || ev.State == Owned) {
		h.wbCount.Inc()
		h.l2.Fill(ev.LineAddr, Modified)
	}
	if level == LevelMem || level == LevelL3 {
		if ev := h.l2.Fill(pa, Shared); ev.Valid && (ev.State == Modified || ev.State == Owned) {
			h.wbCount.Inc()
		}
	}
	if h.l3 != nil && level == LevelMem {
		h.l3.Fill(pa, Shared)
	}

	// Tagged next-line prefetch: a second consecutive line miss
	// triggers a prefetch of the following line into L1.
	if h.cfg.Prefetch && !ifetch {
		if lineAddr == h.prefetchLast+uint64(l1.cfg.LineSize) {
			next := lineAddr + uint64(l1.cfg.LineSize)
			if _, ok := l1.Probe(next); !ok {
				l1.Fill(next, Exclusive)
				h.l2.Fill(next, Shared)
				h.prefetches.Inc()
			}
		}
		h.prefetchLast = lineAddr
	}

	return Result{Ready: ready, Level: level, MSHRMerged: merged}
}

// SetResponseDelay stretches every subsequent access so it completes
// no earlier than cycle until (0 restores normal behavior). This is
// the fault-injection hook modeling a stalled memory device: with a
// far-future cycle, in-flight loads never complete and the commit
// watchdog must trip.
func (h *Hierarchy) SetResponseDelay(until uint64) { h.respDelayUntil = until }

// Load performs a data read at physical address pa at cycle now.
func (h *Hierarchy) Load(pa, now uint64) Result { return h.access(pa, now, false, false) }

// Store performs a data write at physical address pa at cycle now
// (write-allocate, write-back).
func (h *Hierarchy) Store(pa, now uint64) Result { return h.access(pa, now, true, false) }

// Fetch performs an instruction fetch at physical address pa.
func (h *Hierarchy) Fetch(pa, now uint64) Result { return h.access(pa, now, false, true) }

// Audit checks the hierarchy's structural invariants: every level's
// LRU stacks and tag arrays (Cache.Audit), and the miss buffers — no
// two outstanding MSHRs may track the same line (the merge path must
// fold same-line misses), completion times must be set, and the heap
// and the line index must describe the same entries (mshrSet.audit).
// The number of entries is not bounded by cfg.MSHRs: over-occupancy
// requests queue behind the earliest free slot and dead entries retire
// lazily.
func (h *Hierarchy) Audit() error {
	levels := []struct {
		name string
		c    *Cache
	}{{"l1d", h.l1d}, {"l1i", h.l1i}, {"l2", h.l2}, {"l3", h.l3}}
	for _, lv := range levels {
		if lv.c == nil {
			continue
		}
		if err := lv.c.Audit(lv.name); err != nil {
			return err
		}
	}
	return h.mshrs.audit()
}

// snoop handles a remote coherence request against this hierarchy:
// invalidate on write intent, downgrade to Shared/Owned on read.
// It reports whether any level held the line.
func (h *Hierarchy) snoop(lineAddr uint64, invalidate bool) bool {
	held := false
	for _, c := range []*Cache{h.l1d, h.l1i, h.l2, h.l3} {
		if c == nil {
			continue
		}
		st, ok := c.Probe(lineAddr)
		if !ok {
			continue
		}
		held = true
		if invalidate {
			c.Invalidate(lineAddr)
		} else if st == Modified || st == Exclusive {
			c.SetState(lineAddr, Owned)
		}
		_ = st
	}
	return held
}
