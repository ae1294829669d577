package ooo

import (
	"fmt"

	"ptlsim/internal/evlog"
	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// commit retires completed instructions in program order with x86
// atomic-commit semantics: either every uop of an instruction commits
// or (on a fault) none do and the exception is delivered precisely.
// Event upcalls are delivered only at instruction boundaries.
func (c *Core) commit() error {
	budget := c.cfg.CommitWidth
	for i := 0; i < len(c.threads) && budget > 0; i++ {
		var err error
		budget, err = c.commitThread(c.rrThread(i), budget)
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *Core) commitThread(th *thread, budget int) (int, error) {
	ctx := th.ctx
	for budget > 0 {
		if c.commitPaused() {
			return budget, nil
		}
		// Wake halted threads and deliver pending events precisely at
		// instruction boundaries (ROB head is a SOM or the ROB is
		// empty).
		atBoundary := th.robCount == 0 || th.robAt(0).uop.SOM
		if atBoundary && ctx.IF() && c.sys.EventPending(ctx) {
			if !ctx.Running {
				ctx.Running = true
			}
			// ctx.RIP must point at the next uncommitted
			// instruction (with an empty ROB it already is the committed
			// boundary); flush everything and enter the handler.
			if th.robCount > 0 {
				ctx.RIP = th.robAt(0).uop.RIP
			}
			// Deliver first (it rewrites RSP/RFLAGS/RIP), then flush so
			// the fresh rename table snapshots the post-delivery state.
			if err := ctx.DeliverEvent(); err != nil {
				return budget, err
			}
			if c.ev != nil {
				c.ev.Record(evlog.Event{Cycle: c.now, Seq: c.seq, RIP: ctx.RIP,
					Arg: ctx.RIP, Op: evlog.NoOp, Stage: evlog.StageInterrupt,
					Core: uint8(c.ID), Thread: uint8(th.id)})
			}
			c.FullFlush(th.id)
			th.fetchRIP = ctx.RIP
			c.cInterrupts.Inc()
			return budget, nil
		}

		if th.robCount == 0 {
			// Nothing in flight: a pending fetch fault becomes an
			// exception now (its RIP is the fetch RIP).
			if th.fetchFault != uops.FaultNone && th.fetchQ.len() == 0 {
				fault := th.fetchFault
				ctx.RIP = th.fetchRIP
				ctx.CR2 = th.fetchRIP
				vec, errInfo := vm.FaultVector(ctx, fault)
				if err := ctx.DeliverException(vec, errInfo, ctx.RIP); err != nil {
					return budget, err
				}
				c.FullFlush(th.id)
				th.fetchRIP = ctx.RIP
			}
			return budget, nil
		}

		// Find the instruction group SOM..EOM at the head.
		n, complete, faultAt := c.groupStatus(th)
		if !complete {
			return budget, nil
		}

		head := th.robAt(0)
		if faultAt >= 0 {
			// Precise exception: restore to instruction start.
			fe := th.robAt(faultAt)
			fault := fe.fault
			ctx.RIP = head.uop.RIP
			if fe.uop.IsLoad() || fe.uop.IsStore() {
				ctx.CR2 = fe.ea
			}
			vec, errInfo := vm.FaultVector(ctx, fault)
			if err := ctx.DeliverException(vec, errInfo, ctx.RIP); err != nil {
				return budget, err
			}
			c.FullFlush(th.id)
			th.fetchRIP = ctx.RIP
			return budget, nil
		}

		if head.isAssist() {
			// Serializing microcode assist: executes against the
			// architectural state, then the pipeline restarts.
			c.cAssists.Inc()
			if c.ev != nil {
				c.ev.Record(evlog.Event{Cycle: c.now, Seq: head.seq, RIP: head.uop.RIP,
					Arg: uint64(head.uop.Imm), Op: uint16(head.uop.Op),
					Stage: evlog.StageAssist, Core: uint8(c.ID), Thread: uint8(th.id)})
			}
			fault := vm.ExecAssist(ctx, &head.uop, c.sys, c)
			if fault != uops.FaultNone {
				ctx.RIP = head.uop.RIP
				vec, errInfo := vm.FaultVector(ctx, fault)
				if err := ctx.DeliverException(vec, errInfo, ctx.RIP); err != nil {
					return budget, err
				}
				c.FullFlush(th.id)
				th.fetchRIP = ctx.RIP
				return budget, nil
			}
			c.cUops.Inc()
			if !head.uop.NoCount {
				c.countInsn(ctx, head.uop.RIP)
			}
			// Hypercalls may have switched address spaces (Xen
			// MMUEXT_NEW_BASEPTR / mmu_update): honor the shootdown
			// generation by flushing this core's TLBs.
			if th.flushGen != ctx.FlushGen {
				th.flushGen = ctx.FlushGen
				c.FlushTLB()
			}
			c.FullFlush(th.id)
			th.fetchRIP = ctx.RIP
			return budget, nil
		}

		// Commit the whole group atomically this cycle. The oracle's
		// PreCommit runs first so its shadow executes this instruction
		// against pre-group memory (an RMW group's own stores must not
		// be visible to the shadow's loads).
		if c.checker != nil {
			if err := c.checker.PreCommit(th.id, ctx, head.uop.RIP, head.uop.NoCount); err != nil {
				return budget, c.decorate(err)
			}
			c.storeBuf = c.storeBuf[:0]
		}
		smcHit, smcPA := false, uint64(0)
		for k := 0; k < n; k++ {
			e := th.robAt(0)
			u := &e.uop
			if u.Rd != uops.RegZero && e.rdPhys >= 0 {
				ctx.Regs[u.Rd] = c.prf[e.rdPhys].value
			}
			if e.flPhys >= 0 {
				ctx.Regs[uops.RegFlags] = uops.MergeFlags(ctx.Regs[uops.RegFlags],
					c.prf[e.flPhys].value, u.SetFlags)
			}
			if u.IsStore() {
				s := mem.Store{VA: e.ea, PA: e.pa, PA2: e.pa2, Val: e.storeData, Size: u.MemSize}
				if c.checker != nil {
					c.storeBuf = append(c.storeBuf, s)
				}
				_ = ctx.M.PM.WriteStore(s)
				c.hier.Store(s.PA, c.now)
				if c.bbc.InvalidateStore(s) > 0 {
					smcHit, smcPA = true, s.PA
				}
			}
			if u.IsBranch() {
				c.cBranches.Inc()
				if u.Branch == uops.BranchCond {
					th.pred.Update(u.RIP, e.result == u.RIPTaken, e.predSnapshot)
				}
				if e.result != u.RIPNot {
					c.cTaken.Inc()
					th.pred.BTBUpdate(u.RIP, e.result)
				}
				if e.mispredicted {
					c.cMispredicts.Inc()
				}
			}
			if e.lockHeld {
				c.interlock.Release(e.lockLine, c.ID, th.id, e.seq)
				e.lockHeld = false
			}
			if c.ev != nil {
				var fl uint8
				if e.mispredicted {
					fl |= evlog.FlagMispredict
				}
				c.ev.Record(evlog.Event{Cycle: c.now, Seq: e.seq, RIP: u.RIP,
					Arg: e.ea, Op: uint16(u.Op), Stage: evlog.StageCommit,
					Flags: fl, Core: uint8(c.ID), Thread: uint8(th.id)})
			}
			if u.EOM {
				ctx.RIP = e.result // branches store next RIP in result
				if !u.IsBranch() {
					ctx.RIP = u.RIP + uint64(u.X86Len)
				}
				if !u.NoCount {
					c.countInsn(ctx, u.RIP)
				}
			}
			c.cUops.Inc()
			// Free the previous mappings and pop the entry.
			c.freePhys(e.rdOld)
			c.freePhys(e.flOld)
			c.popLSQ(th, e)
			e.valid = false
			th.robHead = th.robSlot(1)
			th.robCount--
		}
		budget -= n
		if budget < 0 {
			budget = 0
		}
		if c.checker != nil {
			if err := c.checker.PostCommit(th.id, ctx, c.cInsns.Value(), c.storeBuf); err != nil {
				return budget, c.decorate(err)
			}
		}

		if smcHit {
			// Self-modifying code: the group's stores dropped every
			// block decoded from the code pages they wrote; restart the
			// pipeline after this insn. The event names the last store
			// that hit code.
			c.cSMC.Inc()
			if c.ev != nil {
				c.ev.Record(evlog.Event{Cycle: c.now, Seq: c.seq, RIP: ctx.RIP,
					Arg: smcPA, Op: evlog.NoOp,
					Stage: evlog.StageSMC, Core: uint8(c.ID), Thread: uint8(th.id)})
			}
			c.FullFlush(th.id)
			th.fetchRIP = ctx.RIP
			return budget, nil
		}
	}
	return budget, nil
}

// countInsn counts a committed x86 instruction with mode attribution
// and records it in the recent-commit ring for failure reports.
func (c *Core) countInsn(ctx *vm.Context, rip uint64) {
	c.cInsns.Inc()
	if ctx.Kernel {
		c.cKernelInsns.Inc()
	} else {
		c.cUserInsns.Inc()
	}
	c.recentRIPs[c.recentN%len(c.recentRIPs)] = rip
	c.recentN++
}

// groupStatus inspects the instruction group at the ROB head: its
// length in uops, whether every uop is complete, and the index of the
// first faulting uop (-1 if clean). An incomplete group (EOM not yet
// renamed) reports complete=false.
func (c *Core) groupStatus(th *thread) (n int, complete bool, faultAt int) {
	faultAt = -1
	for i := 0; i < th.robCount; i++ {
		e := th.robAt(i)
		if i == 0 && !e.uop.SOM {
			// Should not happen: commit always leaves SOM at head.
			panic(fmt.Sprintf("ooo: ROB head not SOM at rip %#x", e.uop.RIP))
		}
		if e.state != stateDone {
			return 0, false, -1
		}
		if e.fault != uops.FaultNone && faultAt < 0 {
			faultAt = i
		}
		if e.uop.EOM {
			return i + 1, true, faultAt
		}
	}
	return 0, false, -1
}

// popLSQ removes a committed entry from the head of its LDQ/STQ.
func (c *Core) popLSQ(th *thread, e *robEntry) {
	if e.uop.IsLoad() && th.ldq.len() > 0 {
		th.ldq.popFront()
	}
	if e.uop.IsStore() && th.stq.len() > 0 {
		th.stq.popFront()
	}
}
