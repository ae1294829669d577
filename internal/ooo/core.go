package ooo

import (
	"fmt"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/bpred"
	"ptlsim/internal/cache"
	"ptlsim/internal/decode"
	"ptlsim/internal/evlog"
	"ptlsim/internal/mem"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/tlb"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// robState tracks a uop's progress through the backend.
type robState uint8

const (
	stateWaiting robState = iota // in an issue queue
	stateIssued                  // executing, completes at readyCycle
	stateDone                    // result available / ready to commit
)

// physReg is one physical register file entry.
type physReg struct {
	value uint64
	ready uint8 // 1 once the value is available (a number so that the select loop can AND three of them)
	// waiters has bit q%32 set when issue queue q may hold a uop
	// waiting for this register: the queues writeback wakes when it
	// sets ready. A stale bit only costs a needless scan.
	waiters uint32
}

// robEntry is one reorder buffer slot (one uop). It holds no pointers,
// so the collector never scans the ROB and filling a slot needs no
// write barriers.
type robEntry struct {
	valid bool
	uop   uops.Uop
	seq   uint64

	rdPhys, rdOld int32 // -1 when no destination
	flPhys, flOld int32 // -1 when no flag write
	src           [3]int32

	state      robState
	class      OpClass
	readyCycle uint64
	earliest   uint64 // replay backoff: do not issue before this cycle
	cluster    int32

	result uint64
	fault  uops.Fault

	// Memory state.
	ea, pa, pa2 uint64
	storeData   uint64
	addrValid   bool
	lockLine    uint64
	lockHeld    bool

	// Branch state.
	predTarget   uint64
	predSnapshot uint64
	rasSnap      bpred.RASSnapshot
	hasRASSnap   bool
	mispredicted bool
}

func (e *robEntry) isMem() bool   { return e.uop.IsLoad() || e.uop.IsStore() }
func (e *robEntry) isAssist() bool { return e.uop.Op == uops.OpAssist }

// fetched is a predicted uop waiting in the fetch queue for rename
// (pointer-free, like robEntry).
type fetched struct {
	uop          uops.Uop
	predTarget   uint64
	predSnapshot uint64
	rasSnap      bpred.RASSnapshot
	hasRASSnap   bool
	// fetchCycle is always stamped at fetch and read only when the
	// event log is on: the fetch event itself is emitted retroactively
	// at rename, once the uop has a sequence number to be identified by.
	fetchCycle uint64
}

// thread is one SMT hardware context: private frontend, ROB, LDQ and
// STQ; shared issue queues, physical registers, FUs and caches.
type thread struct {
	id  int
	ctx *vm.Context

	rat [uops.NumArchRegs]int32

	rob      []robEntry
	robHead  int
	robCount int

	ldq ring[int32] // rob slots of loads, program order (capacity LDQSize)
	stq ring[int32] // rob slots of stores, program order (capacity STQSize)

	fetchRIP        uint64
	fetchQ          ring[fetched] // capacity FetchQSize
	curBB           *decode.BasicBlock
	bbIdx           int
	fetchStallUntil uint64
	fetchFault      uops.Fault
	flushGen        uint64

	pred *bpred.Predictor

	// redirect is this thread's pending recovery (the oldest one raised
	// this cycle), applied by applyRedirects after the issue stage.
	redirect    redirect
	hasRedirect bool

	// Per-thread TLBs (tagged-by-thread model: SMT threads may run in
	// different address spaces).
	dtlb *tlb.TLB
	itlb *tlb.TLB
}

// CommitChecker observes architectural commit boundaries — the hook the
// lockstep commit oracle (internal/selfcheck) attaches through. All
// three methods fire synchronously inside the commit stage.
type CommitChecker interface {
	// PreCommit fires before a clean instruction group starting at rip
	// commits on thread t, before any of its register or memory effects
	// are applied. noCount marks a pseudo-group that does not count as
	// a committed x86 instruction (a REP iteration check): such a group
	// can commit several times in a row at the same rip — its not-taken
	// successor is a group at its own address, so a misprediction
	// redirect re-decodes and re-commits it — and the checker needs the
	// flag to tell those re-commits apart from the counted group that
	// shares the rip. A returned error aborts the cycle and surfaces
	// from Cycle (decorated with the core's pipeline dump).
	PreCommit(t int, ctx *vm.Context, rip uint64, noCount bool) error
	// PostCommit fires after the group has fully committed: ctx holds
	// the post-group architectural state, insns the total committed x86
	// instruction count, and stores the group's store traffic.
	PostCommit(t int, ctx *vm.Context, insns int64, stores []mem.Store) error
	// Resync fires after any full pipeline flush that re-architects
	// state outside the clean-commit path (exception and interrupt
	// delivery, microcode assists, SMC restarts): the checker must
	// re-adopt ctx wholesale.
	Resync(t int, ctx *vm.Context)
}

// Core is one out-of-order core instance.
type Core struct {
	ID  int
	cfg Config

	threads []*thread
	prf     []physReg
	free    []int32
	iqs     []issueQueue
	compl   completionHeap

	// clustersOf lists, per op class, the clusters that execute it.
	clustersOf [NumClasses][]int

	hier *cache.Hierarchy

	bbc       *bbcache.Cache
	sys       vm.System
	interlock *Interlock

	now uint64
	seq uint64

	// rr is the thread that goes first this cycle in the stages that
	// share their width round-robin across SMT threads.
	rr int

	// L1D bank usage, one slot per bank: the line that used the bank in
	// cycle stamp-1 (a stale stamp means the bank is free this cycle).
	banks []bankStamp

	// commitLimit, when positive, stops the commit stage once that
	// many x86 instructions have committed (used by co-simulation to
	// pause at an exact instruction boundary).
	commitLimit int64

	// Commit-progress watchdog: when watchdogCycles > 0 and no thread
	// has committed a uop (or taken an interrupt/assist) for that many
	// cycles while work is in flight, Cycle returns a structured
	// livelock SimError instead of spinning forever.
	watchdogCycles uint64
	lastProgress   uint64
	progressInit   bool

	// recentRIPs is a ring of the most recently committed instruction
	// addresses, attached to SimErrors for post-mortem context.
	recentRIPs [16]uint64
	recentN    int

	// checker, when non-nil, observes every commit boundary (the
	// lockstep oracle); storeBuf collects the committing group's store
	// traffic for it.
	checker  CommitChecker
	storeBuf []mem.Store

	// auditEvery, when positive, runs the pipeline invariant auditor at
	// the top of every auditEvery-th cycle; auditScratch is its reused
	// physical-register marking buffer.
	auditEvery   uint64
	auditScratch []uint8

	// ev, when non-nil, receives packed pipeline events from every
	// stage. Every hook site is gated on this single nil check, so the
	// hot loop pays one predicted-not-taken branch when disabled.
	ev *evlog.Log

	// Statistics.
	cInsns, cUops, cCycles                  *stats.Counter
	cBranches, cMispredicts, cTaken        *stats.Counter
	cLoads, cStores                        *stats.Counter
	cDTLBMiss, cITLBMiss, cWalks           *stats.Counter
	cReplays, cBankReplays, cForwards      *stats.Counter
	cFlushes, cAssists, cInterrupts        *stats.Counter
	cLockReplays, cSMC, cLoadSpecFlush     *stats.Counter
	cFetchStallIQ, cFetchStallROB          *stats.Counter
	cKernelInsns, cUserInsns               *stats.Counter
}

// New creates a core with the given contexts as its SMT threads.
func New(id int, cfg Config, ctxs []*vm.Context, sys vm.System, bbc *bbcache.Cache,
	tree *stats.Tree, prefix string) *Core {
	if len(ctxs) == 0 || len(ctxs) > cfg.MaxThreads {
		panic(fmt.Sprintf("ooo: core %d: %d contexts with MaxThreads=%d", id, len(ctxs), cfg.MaxThreads))
	}
	c := &Core{
		ID:        id,
		cfg:       cfg,
		prf:       make([]physReg, cfg.PhysRegs),
		free:      make([]int32, 0, cfg.PhysRegs),
		iqs:       make([]issueQueue, len(cfg.Clusters)),
		compl:     make(completionHeap, 0, len(ctxs)*cfg.ROBSize),
		banks:     make([]bankStamp, max(cfg.Caches.L1D.Banks, 1)),
		hier:      cache.NewHierarchy(cfg.Caches, tree, prefix+".cache"),
		bbc:       bbc,
		sys:       sys,
		interlock: NewInterlock(),

		cInsns:        tree.Counter(prefix + ".commit.insns"),
		cUops:         tree.Counter(prefix + ".commit.uops"),
		cCycles:       tree.Counter(prefix + ".cycles"),
		cBranches:     tree.Counter(prefix + ".branches"),
		cMispredicts:  tree.Counter(prefix + ".mispredicts"),
		cTaken:        tree.Counter(prefix + ".taken_branches"),
		cLoads:        tree.Counter(prefix + ".loads"),
		cStores:       tree.Counter(prefix + ".stores"),
		cDTLBMiss:     tree.Counter(prefix + ".dtlb.misses"),
		cITLBMiss:     tree.Counter(prefix + ".itlb.misses"),
		cWalks:        tree.Counter(prefix + ".pagewalks"),
		cReplays:      tree.Counter(prefix + ".replays"),
		cBankReplays:  tree.Counter(prefix + ".bank_replays"),
		cForwards:     tree.Counter(prefix + ".store_forwards"),
		cFlushes:      tree.Counter(prefix + ".pipeline_flushes"),
		cAssists:      tree.Counter(prefix + ".assists"),
		cInterrupts:   tree.Counter(prefix + ".interrupts"),
		cLockReplays:  tree.Counter(prefix + ".lock_replays"),
		cSMC:          tree.Counter(prefix + ".smc_flushes"),
		cLoadSpecFlush: tree.Counter(prefix + ".load_spec_flushes"),
		cFetchStallIQ: tree.Counter(prefix + ".stall.iq_full"),
		cFetchStallROB: tree.Counter(prefix + ".stall.rob_full"),
		cKernelInsns:  tree.Counter(prefix + ".commit.kernel_insns"),
		cUserInsns:    tree.Counter(prefix + ".commit.user_insns"),
	}
	for i := range c.prf {
		c.free = append(c.free, int32(len(c.prf)-1-i))
	}
	for q, cl := range cfg.Clusters {
		c.iqs[q].ents = make([]iqEntry, 0, cl.IQSize)
		c.iqs[q].width = cl.IssueWidth
		for op := OpClass(0); op < NumClasses; op++ {
			c.iqs[q].latency[op] = max(cfg.Latency[op]+cl.ExtraLatency, 1)
			if cl.Classes.Has(op) {
				c.clustersOf[op] = append(c.clustersOf[op], q)
			}
		}
	}
	for i, ctx := range ctxs {
		th := &thread{id: i, ctx: ctx, fetchRIP: ctx.RIP,
			rob:    make([]robEntry, cfg.ROBSize),
			ldq:    newRing[int32](cfg.LDQSize),
			stq:    newRing[int32](cfg.STQSize),
			fetchQ: newRing[fetched](cfg.FetchQSize),
			pred:   bpred.New(cfg.Bpred),
			dtlb:   tlb.New(cfg.DTLBEntries, cfg.DTLBAssoc),
			itlb:   tlb.New(cfg.ITLBEntries, cfg.ITLBAssoc),
		}
		// Every call or return in the fetch queue or the ROB holds one
		// RAS checkpoint.
		th.pred.RAS().ReserveCheckpoints(cfg.FetchQSize + cfg.ROBSize)
		c.threads = append(c.threads, th)
		c.initRAT(th)
	}
	return c
}

// Hierarchy exposes the core's cache hierarchy (for coherence wiring).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// SetInterlock shares an interlock controller across cores.
func (c *Core) SetInterlock(il *Interlock) { c.interlock = il }

// Interlock returns the core's interlock controller.
func (c *Core) Interlock() *Interlock { return c.interlock }

// Threads returns the number of hardware threads.
func (c *Core) Threads() int { return len(c.threads) }

// Ctx returns thread t's VCPU context.
func (c *Core) Ctx(t int) *vm.Context { return c.threads[t].ctx }

// Insns returns total committed x86 instructions.
func (c *Core) Insns() int64 { return c.cInsns.Value() }

// SetCommitLimit pauses commit after n total committed instructions
// (0 disables). Used by co-simulation to stop at an exact boundary.
func (c *Core) SetCommitLimit(n int64) { c.commitLimit = n }

// SetWatchdog arms the commit-progress watchdog: if no thread makes
// forward progress for n consecutive cycles while the core has work in
// flight, Cycle returns a livelock SimError (0 disables).
func (c *Core) SetWatchdog(n uint64) { c.watchdogCycles = n }

// SetChecker attaches a commit-boundary checker (nil detaches). The
// checker immediately observes a Resync for each thread so it adopts
// the current architectural state as its baseline.
func (c *Core) SetChecker(ck CommitChecker) {
	c.checker = ck
	if ck != nil {
		for _, th := range c.threads {
			ck.Resync(th.id, th.ctx)
		}
	}
}

// SetAudit arms the pipeline invariant auditor to run every n cycles
// (0 disables). On a violation Cycle returns a KindInvariant SimError.
func (c *Core) SetAudit(n uint64) { c.auditEvery = n }

// SetEventLog attaches a pipeline event log (nil detaches). While
// attached, every stage transition of every uop is recorded.
func (c *Core) SetEventLog(l *evlog.Log) { c.ev = l }

// EventLog returns the attached event log (nil when disabled).
func (c *Core) EventLog() *evlog.Log { return c.ev }

// evTailSize is how many trailing events a failure report carries.
const evTailSize = 64

// eventTail renders the newest events for attachment to a SimError.
func (c *Core) eventTail() string {
	if c.ev == nil || c.ev.Len() == 0 {
		return ""
	}
	return evlog.Text(c.ev.Tail(evTailSize))
}

// SeedTimingState deterministically perturbs timing-only
// microarchitectural state (per-thread branch predictor tables) from
// seed. Architectural results must be invariant under any seed — the
// conformance fuzzer runs the same program under several seeds to
// check exactly that — so only state whose influence is confined to
// speculation and recovery may ever be touched here.
func (c *Core) SeedTimingState(seed int64) {
	for i, th := range c.threads {
		th.pred.Scramble(seed + int64(i)*0x10001)
	}
}

// decorate fills microarchitectural context (cycle, pipeline dump,
// recent commits) into a SimError raised by a checker or auditor that
// lacks access to the core's internals.
func (c *Core) decorate(err error) error {
	if se, ok := simerr.As(err); ok {
		if se.Cycle == 0 {
			se.Cycle = c.now
		}
		if se.Dump == "" {
			se.Dump = c.DumpState()
		}
		if len(se.LastRIPs) == 0 {
			se.LastRIPs = c.RecentCommits()
		}
		if se.EventTail == "" {
			se.EventTail = c.eventTail()
		}
	}
	return err
}

// RecentCommits returns the most recently committed instruction
// addresses, oldest first.
func (c *Core) RecentCommits() []uint64 {
	n := c.recentN
	if n > len(c.recentRIPs) {
		n = len(c.recentRIPs)
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.recentRIPs[(c.recentN-n+i)%len(c.recentRIPs)])
	}
	return out
}

// CorruptROBHead flips the SOM marker of the oldest in-flight uop —
// the fault-injection hook for provoking the commit stage's internal
// invariant check (ROB head must be an instruction start). Returns
// false when the ROB is empty and nothing could be corrupted.
func (c *Core) CorruptROBHead() bool {
	for _, th := range c.threads {
		if th.robCount > 0 {
			th.robAt(0).uop.SOM = false
			return true
		}
	}
	return false
}

// allocPhys takes a physical register off the free list (-2 when
// exhausted; callers treat that as a rename stall).
func (c *Core) allocPhys(value uint64, ready uint8) int32 {
	if len(c.free) == 0 {
		return -2
	}
	p := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.prf[p] = physReg{value: value, ready: ready}
	return p
}

func (c *Core) freePhys(p int32) {
	if p >= 0 {
		c.free = append(c.free, p)
	}
}

// initRAT builds a fresh rename table from the thread's architectural
// state (used at startup and on full pipeline flushes).
func (c *Core) initRAT(th *thread) {
	for r := uops.ArchReg(0); r < uops.NumArchRegs; r++ {
		v := uint64(0)
		if r != uops.RegZero {
			v = th.ctx.Regs[r]
		}
		p := c.allocPhys(v, 1)
		if p < 0 {
			panic("ooo: out of physical registers during RAT init")
		}
		th.rat[r] = p
	}
}

// releaseRAT returns all RAT-mapped physical registers to the free
// list (precedes initRAT during a full flush).
func (c *Core) releaseRAT(th *thread) {
	for r := uops.ArchReg(0); r < uops.NumArchRegs; r++ {
		c.freePhys(th.rat[r])
	}
}

// robSlot converts a logical offset from head (< ROB size) to a
// physical slot.
func (th *thread) robSlot(offset int) int {
	i := th.robHead + offset
	if i >= len(th.rob) {
		i -= len(th.rob)
	}
	return i
}

// robAt returns the entry at a logical offset from head.
func (th *thread) robAt(offset int) *robEntry { return &th.rob[th.robSlot(offset)] }

// dropFrontend empties the thread's fetch queue and restarts fetch at
// rip after the redirect penalty (every squash ends this way).
func (c *Core) dropFrontend(th *thread, rip uint64) {
	th.fetchQ.clear()
	th.curBB = nil
	th.fetchFault = uops.FaultNone
	th.fetchRIP = rip
	th.fetchStallUntil = c.now + c.cfg.FrontendLatency
}

// squashIQ removes thread t's issue queue entries younger than
// afterSeq, and their scheduled completions. A queue's wakeAt stays
// valid: removing entries cannot make a remaining one issuable sooner.
func (c *Core) squashIQ(t int, afterSeq uint64) {
	for q := range c.iqs {
		ents := c.iqs[q].ents
		keep := ents[:0]
		for i := range ents {
			if int(ents[i].thread) == t && ents[i].seq > afterSeq {
				continue
			}
			keep = append(keep, ents[i])
		}
		c.iqs[q].ents = keep
	}
	c.compl.purge(int32(t), afterSeq)
}

// FullFlush squashes everything in flight for thread t and restarts
// fetch at the context's RIP (used for exceptions, assists, interrupts
// and SMC). The RAT is rebuilt from architectural state.
func (c *Core) FullFlush(t int) {
	th := c.threads[t]
	if c.ev != nil {
		// Annul everything in flight (all events younger than the last
		// committed uop), then record the flush itself as a carrier.
		if th.robCount > 0 {
			c.ev.Annul(uint8(c.ID), uint8(t), th.robAt(0).seq-1)
		}
		c.ev.Record(evlog.Event{Cycle: c.now, Seq: c.seq, RIP: th.ctx.RIP,
			Arg: th.ctx.RIP, Op: evlog.NoOp, Stage: evlog.StageFlush,
			Core: uint8(c.ID), Thread: uint8(t)})
	}
	// Roll back renames youngest-first so each physical register is
	// freed exactly once (the RAT must not still point at a freed
	// in-flight destination when releaseRAT runs).
	for i := th.robCount - 1; i >= 0; i-- {
		e := th.robAt(i)
		if e.uop.Rd != uops.RegZero && e.rdPhys >= 0 {
			th.rat[e.uop.Rd] = e.rdOld
			c.freePhys(e.rdPhys)
		}
		if e.flPhys >= 0 {
			th.rat[uops.RegFlags] = e.flOld
			c.freePhys(e.flPhys)
		}
		e.valid = false
	}
	th.robCount = 0
	th.robHead = 0
	th.ldq.clear()
	th.stq.clear()
	c.dropFrontend(th, th.ctx.RIP)
	c.interlock.ReleaseAllFor(c.ID, t, 0)
	c.squashIQ(t, 0)
	c.releaseRAT(th)
	c.initRAT(th)
	c.cFlushes.Inc()
	// Every path that re-architects state outside the clean-commit
	// sequence (exceptions, interrupts, assists, SMC, mode switches)
	// ends in a full flush, so this is the single resync point for the
	// commit oracle's shadow.
	if c.checker != nil {
		c.checker.Resync(t, th.ctx)
	}
}

// squashAfter removes all ROB entries of thread t strictly younger
// than seq (branch misprediction / load mis-speculation recovery),
// rolling the RAT back and restarting fetch at newRIP.
func (c *Core) squashAfter(t int, seq uint64, newRIP uint64) {
	th := c.threads[t]
	if c.ev != nil {
		c.ev.Annul(uint8(c.ID), uint8(t), seq)
		c.ev.Record(evlog.Event{Cycle: c.now, Seq: seq, RIP: newRIP,
			Arg: newRIP, Op: evlog.NoOp, Stage: evlog.StageRedirect,
			Core: uint8(c.ID), Thread: uint8(t)})
	}
	// The squashed uops' RAS checkpoints are the newest ones taken (the
	// whole fetch queue, then the ROB tail); the oldest of them is where
	// the checkpoint ring rewinds to.
	var rewind bpred.RASSnapshot
	hasRewind := false
	for i := th.fetchQ.len() - 1; i >= 0; i-- {
		if f := th.fetchQ.at(i); f.hasRASSnap {
			rewind, hasRewind = f.rasSnap, true
		}
	}
	// Walk from tail (youngest) toward head, undoing renames.
	for th.robCount > 0 {
		e := th.robAt(th.robCount - 1)
		if e.seq <= seq {
			break
		}
		if e.uop.Rd != uops.RegZero && e.rdPhys >= 0 {
			th.rat[e.uop.Rd] = e.rdOld
			c.freePhys(e.rdPhys)
		}
		if e.flPhys >= 0 {
			th.rat[uops.RegFlags] = e.flOld
			c.freePhys(e.flPhys)
		}
		if e.lockHeld {
			c.interlock.Release(e.lockLine, c.ID, t, insnSeqOf(e))
		}
		if e.hasRASSnap {
			rewind, hasRewind = e.rasSnap, true
		}
		e.valid = false
		th.robCount--
	}
	if hasRewind {
		th.pred.RAS().Rewind(rewind)
	}
	th.trimLSQ(&th.ldq, seq)
	th.trimLSQ(&th.stq, seq)
	c.squashIQ(t, seq)
	c.dropFrontend(th, newRIP)
}

// trimLSQ pops the entries younger than seq off the tail of q (the
// thread's LDQ or STQ) after their ROB entries have been squashed.
func (th *thread) trimLSQ(q *ring[int32], seq uint64) {
	for q.len() > 0 {
		e := &th.rob[*q.at(q.len() - 1)]
		if e.valid && e.seq <= seq {
			break
		}
		q.popBack()
	}
}

// insnSeqOf returns the sequence number identifying the x86 instruction
// owning e for interlock purposes (the SOM uop's seq is unknown here,
// so the RIP-stamped seq of the entry itself is used consistently at
// acquire and release time via the ld.acq entry).
func insnSeqOf(e *robEntry) uint64 { return e.seq }

// FlushTLB implements vm.CoreHooks: a serializing TLB flush clears
// every hardware thread's TLBs (conservative for shared-core SMT).
func (c *Core) FlushTLB() {
	for _, th := range c.threads {
		th.dtlb.Flush()
		th.itlb.Flush()
	}
}

// FlushTLBPage implements vm.CoreHooks.
func (c *Core) FlushTLBPage(va uint64) {
	for _, th := range c.threads {
		th.dtlb.FlushPage(va >> 12)
		th.itlb.FlushPage(va >> 12)
	}
}

// Idle reports whether every thread is halted with nothing in flight.
func (c *Core) Idle() bool {
	for _, th := range c.threads {
		if th.ctx.Running || th.robCount > 0 {
			return false
		}
	}
	return true
}

// Cycle advances the core by one clock (the machine scheduler calls
// each core in round-robin order, paper §2.2). Stage order is reversed
// (commit first) so same-cycle structural hazards resolve like
// latched hardware. now must grow from call to call: per-cycle state
// (L1D bank usage) is stamped with it instead of being cleared.
func (c *Core) Cycle(now uint64) error {
	c.now = now
	// The invariant audit runs before commit so corrupted pipeline state
	// surfaces as a structured KindInvariant report instead of tripping
	// the commit stage's internal panics.
	if c.auditEvery > 0 && now%c.auditEvery == 0 {
		if err := c.Audit(); err != nil {
			return err
		}
	}
	c.cCycles.Inc()
	c.rr = 0
	if n := len(c.threads); n > 1 {
		c.rr = int(now % uint64(n))
	}
	progressBefore := c.cUops.Value() + c.cInterrupts.Value() + c.cAssists.Value()
	if err := c.commit(); err != nil {
		return err
	}
	c.writeback()
	c.issue()
	c.applyRedirects()
	c.rename()
	c.fetch()
	return c.checkWatchdog(progressBefore)
}

// checkWatchdog updates the commit-progress watchdog after a cycle and
// reports livelock once the threshold of progress-free cycles passes.
// Cycles where commit is legitimately paused (idle threads, a
// co-simulation commit limit) count as progress.
func (c *Core) checkWatchdog(progressBefore int64) error {
	if !c.progressInit {
		c.progressInit = true
		c.lastProgress = c.now
	}
	progressed := c.cUops.Value()+c.cInterrupts.Value()+c.cAssists.Value() != progressBefore
	if progressed || c.Idle() || c.commitPaused() {
		c.lastProgress = c.now
		return nil
	}
	if c.watchdogCycles == 0 || c.now-c.lastProgress < c.watchdogCycles {
		return nil
	}
	ctx := c.threads[0].ctx
	return &simerr.SimError{
		Kind:  simerr.KindLivelock,
		Cycle: c.now,
		VCPU:  ctx.ID,
		RIP:   ctx.RIP,
		Message: fmt.Sprintf("core %d: no commit progress for %d cycles (watchdog %d)",
			c.ID, c.now-c.lastProgress, c.watchdogCycles),
		Dump:      c.DumpState(),
		LastRIPs:  c.RecentCommits(),
		EventTail: c.eventTail(),
	}
}

// redirect is a deferred pipeline recovery: squash everything with
// seq > afterSeq on its thread and refetch from rip.
type redirect struct {
	afterSeq uint64
	rip      uint64
}

// bankStamp records the last use of one L1D bank.
type bankStamp struct {
	stamp uint64 // cycle of the use + 1 (0 = never used)
	line  uint64
}

// rrThread returns the i-th thread in this cycle's round-robin order.
func (c *Core) rrThread(i int) *thread {
	i += c.rr
	if i >= len(c.threads) {
		i -= len(c.threads)
	}
	return c.threads[i]
}
