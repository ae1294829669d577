package ooo

import (
	"ptlsim/internal/bbcache"
	"ptlsim/internal/bpred"
	"ptlsim/internal/evlog"
	"ptlsim/internal/mem"
	"ptlsim/internal/tlb"
	"ptlsim/internal/uops"
)

// itlbTranslate translates a fetch address through the ITLB, running
// the page walker on a miss. It returns the physical address and the
// cycle at which the translation is available.
func (c *Core) itlbTranslate(th *thread, va uint64) (pa uint64, ready uint64, fault uops.Fault) {
	vpn := va >> mem.PageShift
	if e, ok := th.itlb.Lookup(vpn); ok {
		return e.MFN<<mem.PageShift | va&mem.PageMask, c.now, uops.FaultNone
	}
	c.cITLBMiss.Inc()
	w, ready := c.pageWalk(th, va, mem.Access{Exec: true, User: !th.ctx.Kernel, SetAD: true})
	if w.Fault != uops.FaultNone {
		th.ctx.CR2 = va
		return 0, ready, w.Fault
	}
	th.itlb.Insert(tlb.Entry{VPN: vpn, MFN: w.MFN, Flags: w.PTE})
	return w.PhysAddr(va), ready, uops.FaultNone
}

// pageWalk performs the hardware page table walk, modeling each PTE
// read as a dependent load through the data cache hierarchy — page
// tables compete with user data for cache lines, which is why TLB miss
// latency is not a constant (paper §4.3).
func (c *Core) pageWalk(th *thread, va uint64, acc mem.Access) (mem.WalkResult, uint64) {
	c.cWalks.Inc()
	w := mem.Walk(th.ctx.M.PM, th.ctx.CR3, va, acc)
	ready := c.now
	for i := 0; i < w.Depth; i++ {
		r := c.hier.Load(w.PTEAddrs[i], ready)
		ready = r.Ready
	}
	return w, ready
}

// fetch brings predicted uops from the basic block cache into each
// thread's fetch queue, up to FetchWidth per cycle shared round-robin
// across SMT threads.
func (c *Core) fetch() {
	budget := c.cfg.FetchWidth
	for i := 0; i < len(c.threads) && budget > 0; i++ {
		budget = c.fetchThread(c.rrThread(i), budget)
	}
}

func (c *Core) fetchThread(th *thread, budget int) int {
	if !th.ctx.Running || th.fetchFault != uops.FaultNone {
		return budget
	}
	if c.now < th.fetchStallUntil {
		return budget
	}
	for budget > 0 {
		if th.fetchQ.full() {
			return budget
		}
		if th.curBB == nil {
			if !c.openBB(th) {
				return budget
			}
			if c.now < th.fetchStallUntil {
				return budget
			}
		}
		bb := th.curBB
		// The queue slot is filled in place; every field is set because
		// the slot still holds the last uop that passed through it.
		f := th.fetchQ.pushBack()
		f.uop = bb.Uops[th.bbIdx]
		f.fetchCycle = c.now // read only when the event log is on
		budget--

		if u := &f.uop; u.IsBranch() {
			f.predTarget, f.predSnapshot, f.rasSnap, f.hasRASSnap = c.predictBranch(th, u)
			// A REP entry check predicted not-taken falls through to
			// the iteration body within the same basic block.
			if th.bbIdx+1 < len(bb.Uops) && f.predTarget == bb.Uops[th.bbIdx+1].RIP {
				th.bbIdx++
				continue
			}
			th.curBB = nil
			th.fetchRIP = f.predTarget
			// Redirecting fetch to a taken target costs a bubble.
			if f.predTarget != u.RIPNot {
				th.fetchStallUntil = c.now + 1
			}
			continue
		}

		f.predTarget, f.predSnapshot, f.hasRASSnap = 0, 0, false
		th.bbIdx++
		if th.bbIdx >= len(bb.Uops) {
			th.curBB = nil
			th.fetchRIP = bb.FallThrough()
		}
	}
	return budget
}

// predictBranch consults the branch predictors at fetch time. Calls and
// returns checkpoint the return address stack first (hasRAS); the
// checkpoint handle travels with the uop to resolveBranch.
func (c *Core) predictBranch(th *thread, u *uops.Uop) (target, snapshot uint64, ras bpred.RASSnapshot, hasRAS bool) {
	next := u.RIP + uint64(u.X86Len)
	switch u.Branch {
	case uops.BranchCond:
		taken, snap := th.pred.PredictDirection(u.RIP)
		if taken {
			return u.RIPTaken, snap, 0, false
		}
		return u.RIPNot, snap, 0, false
	case uops.BranchUncond:
		return u.RIPTaken, 0, 0, false
	case uops.BranchCall:
		snap := th.pred.RAS().Snapshot()
		th.pred.RAS().Push(next)
		if u.Op == uops.OpBrInd {
			if t, ok := th.pred.BTBLookup(u.RIP); ok {
				return t, 0, snap, true
			}
			return next, 0, snap, true // no target known: predict poorly
		}
		return u.RIPTaken, 0, snap, true
	case uops.BranchRet:
		snap := th.pred.RAS().Snapshot()
		return th.pred.RAS().Pop(), 0, snap, true
	case uops.BranchIndirect:
		if t, ok := th.pred.BTBLookup(u.RIP); ok {
			return t, 0, 0, false
		}
		return next, 0, 0, false
	}
	return next, 0, 0, false
}

// openBB locates (or builds) the basic block at the thread's fetch RIP
// and charges the I-cache access.
func (c *Core) openBB(th *thread) bool {
	// TLB shootdown check: a CR3 reload performed outside this core
	// (a hypercall executed in native mode, or another engine) must
	// invalidate this thread's TLBs before any new translation is used.
	if th.flushGen != th.ctx.FlushGen {
		th.flushGen = th.ctx.FlushGen
		th.dtlb.Flush()
		th.itlb.Flush()
	}
	pa, ready, fault := c.itlbTranslate(th, th.fetchRIP)
	if fault != uops.FaultNone {
		th.fetchFault = fault
		return false
	}
	if ready > c.now {
		th.fetchStallUntil = ready
		return false
	}
	r := c.hier.Fetch(pa, c.now)
	if r.Ready > c.now {
		th.fetchStallUntil = r.Ready
	}
	bb, f := c.bbc.Get(bbcache.Key{RIP: th.fetchRIP, MFN: pa >> mem.PageShift, Kernel: th.ctx.Kernel}, th.ctx)
	if f != uops.FaultNone {
		th.fetchFault = f
		return false
	}
	th.curBB = bb
	th.bbIdx = 0
	return true
}

// rename moves uops from fetch queues into the backend: ROB slot,
// physical registers, an issue queue slot, and LDQ/STQ slots for
// memory operations. In-order; stalls on any structural shortage.
func (c *Core) rename() {
	budget := c.cfg.RenameWidth
	for i := 0; i < len(c.threads) && budget > 0; i++ {
		budget = c.renameThread(c.rrThread(i), budget)
	}
}

func (c *Core) renameThread(th *thread, budget int) int {
	for budget > 0 && th.fetchQ.len() > 0 {
		f := th.fetchQ.at(0) // read in place; popped once the uop is in the ROB
		u := &f.uop

		class := classOf(u)
		cl, stall := c.renameCheck(th, u, class)
		switch stall {
		case stallROB:
			c.cFetchStallROB.Inc()
			return budget
		case stallIQ:
			c.cFetchStallIQ.Inc()
			return budget
		case stallQuiet:
			return budget
		}
		rd, fl := int32(-1), int32(-1)
		if u.Rd != uops.RegZero {
			rd = c.allocPhys(0, 0)
		}
		if u.SetFlags != 0 {
			fl = c.allocPhys(0, 0)
		}

		c.seq++
		slot := th.robSlot(th.robCount)
		th.robCount++
		// Fill the slot field by field (no 200-byte temporary). Every
		// field is assigned: the slot still holds its previous uop.
		e := &th.rob[slot]
		e.valid = true
		e.uop = *u
		u = &e.uop
		e.seq = c.seq
		e.rdPhys, e.rdOld, e.flPhys, e.flOld = rd, -1, fl, -1
		e.src = [3]int32{th.rat[u.Ra], c.srcPhysB(th, u), th.rat[u.Rc]}
		e.state, e.class = stateWaiting, class
		e.readyCycle, e.earliest = 0, 0
		e.cluster = int32(cl)
		e.result, e.fault = 0, uops.FaultNone
		e.ea, e.pa, e.pa2, e.storeData = 0, 0, 0, 0
		e.addrValid = false
		e.lockLine, e.lockHeld = 0, false
		e.predTarget, e.predSnapshot = f.predTarget, f.predSnapshot
		e.rasSnap, e.hasRASSnap = f.rasSnap, f.hasRASSnap
		e.mispredicted = false
		fetchCycle := f.fetchCycle
		th.fetchQ.popFront()

		if rd >= 0 {
			e.rdOld = th.rat[u.Rd]
			th.rat[u.Rd] = rd
		}
		if fl >= 0 {
			e.flOld = th.rat[uops.RegFlags]
			th.rat[uops.RegFlags] = fl
		}
		if u.IsLoad() {
			*th.ldq.pushBack() = int32(slot)
		}
		if u.IsStore() {
			*th.stq.pushBack() = int32(slot)
		}
		if e.isAssist() {
			// Assists execute at commit; mark complete immediately.
			e.state = stateDone
		} else {
			iq := &c.iqs[cl]
			iq.ents = append(iq.ents, iqEntry{seq: e.seq, src: e.src,
				rob: int32(slot), thread: int32(th.id)})
			// The queue needs a scan for this uop once its sources are
			// ready: now, or when writeback wakes the waiters of the
			// last of them.
			ready := true
			for _, p := range e.src {
				if r := &c.prf[p]; r.ready == 0 {
					r.waiters |= queueBit(cl)
					ready = false
				}
			}
			if ready {
				iq.wakeAt = 0
			}
		}
		if c.ev != nil {
			// The fetch event is emitted retroactively now that the uop
			// has its sequence number; its cycle is the true fetch cycle.
			op := uint16(u.Op)
			c.ev.Record(evlog.Event{Cycle: fetchCycle, Seq: e.seq, RIP: u.RIP,
				Op: op, Stage: evlog.StageFetch, Core: uint8(c.ID), Thread: uint8(th.id)})
			c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: u.RIP,
				Op: op, Stage: evlog.StageRename, Core: uint8(c.ID), Thread: uint8(th.id)})
			if !e.isAssist() {
				c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: u.RIP,
					Arg: uint64(cl), Op: op, Stage: evlog.StageDispatch,
					Core: uint8(c.ID), Thread: uint8(th.id)})
			}
		}
		budget--
	}
	return budget
}

// renameStall says why the uop at the head of a fetch queue cannot be
// renamed this cycle.
type renameStall uint8

const (
	renameOK   renameStall = iota
	stallROB               // ROB full: counted in stall.rob_full
	stallIQ                // every issue queue of the uop's class full: counted in stall.iq_full
	stallQuiet             // LDQ or STQ full, or too few free physical registers: counts nothing
)

// renameCheck decides, without changing anything, whether th can rename
// uop u (of op class class) now: the issue queue it would go to, or the
// structural shortage that blocks it, tested in the order the counters
// have always seen them. The rename stage and the next-event clock
// (NextEvent) both ask here, so what the clock predicts a stalled cycle
// to count is what the stage counts.
func (c *Core) renameCheck(th *thread, u *uops.Uop, class OpClass) (cluster int, stall renameStall) {
	if th.robCount >= len(th.rob) {
		return -1, stallROB
	}
	cl := c.pickCluster(class)
	if cl < 0 {
		return -1, stallIQ
	}
	need := 0
	if u.Rd != uops.RegZero {
		need++
	}
	if u.SetFlags != 0 {
		need++
	}
	if (u.IsLoad() && th.ldq.full()) || (u.IsStore() && th.stq.full()) || len(c.free) < need {
		return cl, stallQuiet
	}
	return cl, renameOK
}

// srcPhysB resolves operand b to a physical register. An absent source
// (here an immediate, elsewhere RegZero) reads the zero register, which
// has a rename table entry like any other but is never a destination:
// its physical register is always ready and holds 0, so the select loop
// and the operand read need no special case.
func (c *Core) srcPhysB(th *thread, u *uops.Uop) int32 {
	if u.BImm {
		return th.rat[uops.RegZero]
	}
	return th.rat[u.Rb]
}

// pickCluster selects the issue queue for a uop of a class: among
// clusters that can execute it, the one with the most free entries (PTLsim's
// load-balancing cluster selection). Returns -1 if all are full.
func (c *Core) pickCluster(class OpClass) int {
	best, bestFree := -1, 0
	for _, i := range c.clustersOf[class] {
		free := cap(c.iqs[i].ents) - len(c.iqs[i].ents)
		if free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// classOf buckets a uop into an op class.
func classOf(u *uops.Uop) OpClass {
	switch {
	case u.IsLoad():
		return ClassLoad
	case u.IsStore():
		return ClassStore
	case u.IsBranch():
		return ClassBranch
	}
	switch u.Op {
	case uops.OpMull, uops.OpMulh, uops.OpMulhu:
		return ClassMul
	case uops.OpDiv, uops.OpRem, uops.OpDivs, uops.OpRems:
		return ClassDiv
	case uops.OpFAdd, uops.OpFSub, uops.OpFMul, uops.OpFCmp,
		uops.OpFCvtID, uops.OpFCvtDI:
		return ClassFP
	case uops.OpFDiv:
		return ClassFDiv
	default:
		return ClassALU
	}
}
