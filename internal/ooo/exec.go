package ooo

import (
	"ptlsim/internal/evlog"
	"ptlsim/internal/mem"
	"ptlsim/internal/tlb"
	"ptlsim/internal/uops"
)

// writeback completes executing uops whose latency has elapsed: their
// physical registers become ready, waking dependent uops in the issue
// queues (broadcast wakeup). The due completions come off the
// completion heap in thread-major, then program order.
func (c *Core) writeback() {
	var wake uint32 // queueBits of the queues with a uop to wake
	for len(c.compl) > 0 && c.compl[0].due <= c.now {
		ev := c.compl.pop()
		e := &c.threads[ev.thread].rob[ev.slot]
		e.state = stateDone
		if e.rdPhys >= 0 {
			wake |= c.setReady(e.rdPhys)
		}
		if e.flPhys >= 0 {
			wake |= c.setReady(e.flPhys)
		}
		if c.ev != nil {
			c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: e.uop.RIP,
				Arg: e.result, Op: uint16(e.uop.Op), Stage: evlog.StageComplete,
				Core: uint8(c.ID), Thread: uint8(ev.thread)})
		}
	}
	if wake != 0 {
		for q := range c.iqs {
			if wake&queueBit(q) != 0 {
				c.iqs[q].wakeAt = 0
			}
		}
	}
}

// setReady marks physical register p's value available and returns the
// queues that may hold a uop waiting for it.
func (c *Core) setReady(p int32) uint32 {
	r := &c.prf[p]
	w := r.waiters
	r.ready, r.waiters = 1, 0
	return w
}

// queueBit is issue queue q's bit in physReg.waiters (queues 32 apart
// share one, which only wakes a queue more often than it needs).
func queueBit(q int) uint32 { return 1 << (uint(q) & 31) }

// srcsReady reports whether all three source registers hold a value.
func (c *Core) srcsReady(src *[3]int32) bool {
	return c.prf[src[0]].ready&c.prf[src[1]].ready&c.prf[src[2]].ready != 0
}

// issue selects ready uops from each cluster's issue queue (oldest
// first, collapsing on issue) and executes them. A queue whose last
// scan found nothing that could issue is skipped until it is woken
// (issueQueue.wakeAt).
func (c *Core) issue() {
	for q := range c.iqs {
		iq := &c.iqs[q]
		if c.now < iq.wakeAt {
			continue
		}
		ents := iq.ents
		issued := 0
		wake := never
		w := 0 // ents[:w] are kept; w == n until the first removal
		n := 0
		for ; n < len(ents); n++ {
			if issued >= iq.width {
				wake = 0 // the rest was not looked at
				break
			}
			ent := &ents[n]
			switch {
			case !c.srcsReady(&ent.src):
				// Waits for a writeback, which wakes the queue.
			case ent.earliest > c.now:
				wake = min(wake, ent.earliest)
			case c.issueUop(ent, q):
				issued++
				continue // leaves the queue
			default: // replayed: stays, with the backoff execute gave it
				wake = min(wake, ent.earliest)
			}
			if w != n {
				ents[w] = *ent
			}
			w++
		}
		if w != n {
			for ; n < len(ents); n++ { // a few entries: cheaper than memmove
				ents[w] = ents[n]
				w++
			}
			iq.ents = ents[:w]
		}
		iq.wakeAt = wake
	}
}

// issueUop executes the uop of issue queue entry ent (cluster q) and
// schedules its completion; when it must replay instead it reports
// false and leaves the new backoff in ent.
func (c *Core) issueUop(ent *iqEntry, q int) bool {
	th := c.threads[ent.thread]
	e := &th.rob[ent.rob]
	if !c.execute(th, e, q) {
		if c.ev != nil {
			c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: e.uop.RIP,
				Arg: e.ea, Op: uint16(e.uop.Op), Stage: evlog.StageReplay,
				Flags: evlog.FlagReplayed, Core: uint8(c.ID), Thread: uint8(th.id)})
		}
		ent.earliest = e.earliest
		return false
	}
	if c.ev != nil {
		var fl uint8
		if e.mispredicted {
			fl |= evlog.FlagMispredict
		}
		if e.earliest > 0 {
			fl |= evlog.FlagReplayed
		}
		c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: e.uop.RIP,
			Arg: e.ea, Op: uint16(e.uop.Op), Stage: evlog.StageIssue,
			Flags: fl, Core: uint8(c.ID), Thread: uint8(th.id)})
	}
	// This cycle's writeback has run: the next one is the first that can
	// see the uop, also when its latency has already elapsed.
	c.compl.push(completion{due: max(e.readyCycle, c.now+1), seq: e.seq, thread: ent.thread, slot: ent.rob})
	return true
}

// execute runs one uop's computation and schedules its completion. It
// returns false when the uop must replay (bank conflict, interlock,
// unresolved older store).
func (c *Core) execute(th *thread, e *robEntry, cluster int) bool {
	u := &e.uop
	a := c.prf[e.src[0]].value
	b := c.prf[e.src[1]].value
	if u.BImm {
		b = uint64(u.Imm)
	}
	cv := c.prf[e.src[2]].value

	res, flagsOut, fault := uops.Exec(u, a, b, cv)
	ready := c.now + c.iqs[cluster].latency[e.class]

	switch {
	case u.IsLoad():
		ok, loadReady := c.executeLoad(th, e, res)
		if !ok {
			return false
		}
		ready = loadReady
		res = e.result // value loaded (or forwarded)
	case u.IsStore():
		if !c.executeStore(th, e, res, cv) {
			return false
		}
	case u.IsBranch():
		e.result = res
		c.resolveBranch(th, e, res)
	}

	if !u.IsLoad() {
		e.result = res
	}
	if e.fault == uops.FaultNone {
		e.fault = fault
	}
	e.state = stateIssued
	e.readyCycle = ready
	if e.rdPhys >= 0 {
		c.prf[e.rdPhys].value = e.result
	}
	if e.flPhys >= 0 {
		c.prf[e.flPhys].value = flagsOut
	}
	return true
}

// dtlbTranslate translates a data access through the DTLB with a
// cycle-modeled page walk on miss. It returns (pa, readyCycle, fault).
func (c *Core) dtlbTranslate(th *thread, va uint64, write bool) (uint64, uint64, uops.Fault) {
	vpn := va >> mem.PageShift
	if ent, ok := th.dtlb.Lookup(vpn); ok {
		// Write permission must still be honored on a TLB hit.
		if !write || ent.Flags&mem.PTEWritable != 0 {
			if !th.ctx.Kernel && ent.Flags&mem.PTEUser == 0 {
				th.ctx.CR2 = va
				return 0, c.now, uops.FaultPageRead
			}
			if write && ent.Flags&mem.PTEDirty == 0 {
				// First write to a clean page: walk to set the D bit.
				w, _ := c.pageWalk(th, va, mem.Access{Write: true, User: !th.ctx.Kernel, SetAD: true})
				if w.Fault == uops.FaultNone {
					th.dtlb.Insert(tlb.Entry{VPN: vpn, MFN: w.MFN, Flags: w.PTE})
				}
			}
			return ent.MFN<<mem.PageShift | va&mem.PageMask, c.now, uops.FaultNone
		}
	}
	c.cDTLBMiss.Inc()
	acc := mem.Access{Write: write, User: !th.ctx.Kernel, SetAD: true}
	w, ready := c.pageWalk(th, va, acc)
	if w.Fault != uops.FaultNone {
		th.ctx.CR2 = va
		return 0, ready, w.Fault
	}
	th.dtlb.Insert(tlb.Entry{VPN: vpn, MFN: w.MFN, Flags: w.PTE})
	return w.PhysAddr(va), ready, uops.FaultNone
}

// bankConflict models the K8's pseudo dual-ported banked L1: two
// same-cycle accesses to the same bank in different lines collide and
// the younger replays one cycle later.
func (c *Core) bankConflict(pa uint64) bool {
	if !c.cfg.EnforceBanking {
		return false
	}
	b := &c.banks[c.hier.L1D().Bank(pa)]
	line := c.hier.L1D().LineAddr(pa)
	if b.stamp == c.now+1 && b.line != line {
		return true
	}
	b.stamp, b.line = c.now+1, line
	return false
}

// executeLoad handles address translation, the STQ search (store to
// load forwarding and hoisting policy), interlock acquisition for
// ld.acq, bank conflicts and the cache access. Returns (issued, ready).
func (c *Core) executeLoad(th *thread, e *robEntry, ea uint64) (bool, uint64) {
	u := &e.uop
	e.ea = ea

	// Search older stores in the STQ.
	forward := false
	var fwdVal uint64
	for i := th.stq.len() - 1; i >= 0; i-- {
		s := &th.rob[*th.stq.at(i)]
		if !s.valid || s.seq >= e.seq {
			continue
		}
		if !s.addrValid {
			// Unresolved older store address.
			locked := u.Op == uops.OpLdAcq
			if !c.cfg.LoadHoisting || locked {
				e.earliest = c.now + 1
				c.cReplays.Inc()
				return false, 0
			}
			// Hoist speculatively past it; mis-speculation is caught
			// when the store resolves.
			continue
		}
		if rangesOverlap(s.ea, uint64(s.uop.MemSize), ea, uint64(u.MemSize)) {
			if s.ea == ea && s.uop.MemSize >= u.MemSize {
				forward = true
				fwdVal = s.storeData & uops.Mask(u.MemSize)
				break
			}
			// Partial overlap: wait until the store commits.
			e.earliest = c.now + 1
			c.cReplays.Inc()
			return false, 0
		}
	}

	if !e.addrValid {
		pa, ready, fault := c.dtlbTranslate(th, ea, false)
		if fault != uops.FaultNone {
			e.fault = fault
			e.addrValid = true
			e.state = stateIssued
			e.readyCycle = c.now + 1
			c.cLoads.Inc()
			e.result = 0
			return true, c.now + 1
		}
		e.pa = pa
		e.addrValid = true
		if ready > c.now {
			// Walk latency: replay the load when the walk completes.
			e.earliest = ready
			e.addrValid = true
			return false, 0
		}
	}

	// Interlocked load: acquire the line lock or replay. Acquisition
	// is forced into program order per thread: a younger ld.acq that
	// issued first could otherwise take a line an older ld.acq needs
	// and then be unable to release it (release happens at commit,
	// which the blocked older instruction gates) — two locked RMWs to
	// the same line deadlock the thread. With in-order acquisition any
	// held lock's owner has every older same-thread locked instruction
	// already holding its own lock, so the owner can always drain to
	// commit and release.
	if u.Op == uops.OpLdAcq {
		for i := 0; i < th.ldq.len(); i++ {
			o := &th.rob[*th.ldq.at(i)]
			if o.valid && o.seq < e.seq && o.uop.Op == uops.OpLdAcq && !o.lockHeld {
				e.earliest = c.now + 1
				c.cLockReplays.Inc()
				return false, 0
			}
		}
		line := c.hier.L1D().LineAddr(e.pa)
		if !c.interlock.Acquire(line, c.ID, th.id, e.seq) {
			e.earliest = c.now + 1
			c.cLockReplays.Inc()
			return false, 0
		}
		e.lockLine = line
		e.lockHeld = true
	}

	if c.bankConflict(e.pa) {
		e.earliest = c.now + 1
		c.cBankReplays.Inc()
		c.hier.CountBankConflict()
		return false, 0
	}

	c.cLoads.Inc()
	var ready uint64
	if forward {
		c.cForwards.Inc()
		e.result = fwdVal
		ready = c.now + 1
	} else {
		// Read the architectural memory value; page-crossing loads
		// access both pages (second translation for the tail bytes).
		val, fault := c.loadMemValue(th, e, u.MemSize)
		if fault != uops.FaultNone {
			e.fault = fault
			e.state = stateIssued
			e.readyCycle = c.now + 1
			return true, c.now + 1
		}
		e.result = val
		r := c.hier.Load(e.pa, c.now)
		ready = r.Ready
	}
	return true, ready
}

// loadMemValue fetches the value for a load, handling page crossing.
func (c *Core) loadMemValue(th *thread, e *robEntry, size uint8) (uint64, uops.Fault) {
	first := mem.PageSize - e.ea&mem.PageMask
	if first >= uint64(size) {
		v, err := th.ctx.M.PM.Read(e.pa, size)
		if err != nil {
			return 0, uops.FaultPageRead
		}
		return v, uops.FaultNone
	}
	f1 := uint8(first)
	lo, err := th.ctx.M.PM.Read(e.pa, f1)
	if err != nil {
		return 0, uops.FaultPageRead
	}
	pa2, _, fault := c.dtlbTranslate(th, e.ea+first, false)
	if fault != uops.FaultNone {
		return 0, fault
	}
	hi, err := th.ctx.M.PM.Read(pa2, size-f1)
	if err != nil {
		return 0, uops.FaultPageRead
	}
	return lo | hi<<(8*f1), uops.FaultNone
}

// executeStore resolves a store's address and data into the STQ; the
// actual memory update happens at commit. Detects load hoisting
// mis-speculation against younger already-executed loads.
func (c *Core) executeStore(th *thread, e *robEntry, ea, data uint64) bool {
	u := &e.uop
	e.ea = ea
	pa, ready, fault := c.dtlbTranslate(th, ea, true)
	if fault != uops.FaultNone {
		e.fault = fault
		e.addrValid = true
		c.cStores.Inc()
		return true
	}
	if ready > c.now {
		e.earliest = ready
		return false
	}
	// Translate the second page of a crossing store now so the fault
	// is precise at this uop.
	if first := mem.PageSize - ea&mem.PageMask; first < uint64(u.MemSize) {
		pa2, _, fault := c.dtlbTranslate(th, ea+first, true)
		if fault != uops.FaultNone {
			e.fault = fault
			e.addrValid = true
			c.cStores.Inc()
			return true
		}
		e.pa2 = pa2
	}
	if c.bankConflict(pa) {
		e.earliest = c.now + 1
		c.cBankReplays.Inc()
		c.hier.CountBankConflict()
		return false
	}
	e.pa = pa
	e.addrValid = true
	e.storeData = data & uops.Mask(u.MemSize)
	c.cStores.Inc()

	// Load hoisting check: a younger load that already executed and
	// overlaps this store consumed a stale value — squash its whole
	// instruction and everything younger (replay trap). Applied at end
	// of cycle via the redirect list.
	if c.cfg.LoadHoisting {
		for i := 0; i < th.ldq.len(); i++ {
			l := &th.rob[*th.ldq.at(i)]
			if !l.valid || l.seq <= e.seq || l.state == stateWaiting || !l.addrValid {
				continue
			}
			if rangesOverlap(ea, uint64(u.MemSize), l.ea, uint64(l.uop.MemSize)) {
				c.cLoadSpecFlush.Inc()
				somSeq := c.insnStartSeq(th, l.seq)
				th.raiseRedirect(somSeq-1, l.uop.RIP)
				break
			}
		}
	}
	return true
}

// insnStartSeq finds the sequence number of the SOM uop of the
// instruction containing the entry with sequence seq.
func (c *Core) insnStartSeq(th *thread, seq uint64) uint64 {
	som := seq
	for i := 0; i < th.robCount; i++ {
		e := th.robAt(i)
		if e.seq > seq {
			break
		}
		if e.uop.SOM {
			som = e.seq
		}
	}
	return som
}

func rangesOverlap(a uint64, an uint64, b uint64, bn uint64) bool {
	return a < b+bn && b < a+an
}

// resolveBranch compares the computed target with the fetch-time
// prediction and triggers recovery on a mispredict.
func (c *Core) resolveBranch(th *thread, e *robEntry, actual uint64) {
	if actual == e.predTarget {
		return
	}
	e.mispredicted = true
	// Restore predictor history to the pre-branch state, then re-apply
	// the actual outcome.
	if e.uop.Branch == uops.BranchCond {
		th.pred.Recover(e.predSnapshot, actual == e.uop.RIPTaken)
	}
	if e.hasRASSnap {
		th.pred.RAS().Restore(e.rasSnap)
		if e.uop.Branch == uops.BranchCall {
			th.pred.RAS().Push(e.uop.RIP + uint64(e.uop.X86Len))
		} else if e.uop.Branch == uops.BranchRet {
			th.pred.RAS().Pop()
		}
	}
	// Recovery (ROB/IQ squash and fetch redirect) is applied at end of
	// cycle so the issue loop never mutates queues it is scanning.
	th.raiseRedirect(e.seq, actual)
}

// raiseRedirect asks for a recovery at the end of this cycle. A thread
// recovers at most once per cycle: the oldest redirect wins (the first
// raised among equals), which necessarily squashes the causes of any
// younger ones.
func (th *thread) raiseRedirect(afterSeq, rip uint64) {
	if !th.hasRedirect || afterSeq < th.redirect.afterSeq {
		th.redirect, th.hasRedirect = redirect{afterSeq: afterSeq, rip: rip}, true
	}
}

// applyRedirects performs the recoveries raised during the issue stage,
// in thread order.
func (c *Core) applyRedirects() {
	for _, th := range c.threads {
		if th.hasRedirect {
			th.hasRedirect = false
			c.squashAfter(th.id, th.redirect.afterSeq, th.redirect.rip)
		}
	}
}
