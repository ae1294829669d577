package ooo

import (
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
)

// The core's half of the next-event clock (DESIGN.md §5 "Next-event
// clock"): NextEvent says how long the core stays quiet, SkipTo accounts
// for a span the machine jumps over — or, under the auditor, steps
// through it and checks that the account is right.

// NextEvent returns the first cycle ≥ now at which a stage of the core
// can do more than count a stall, provided nothing outside the core
// (a timer, another core, a step hook) touches it before then: now when
// a stage has work this cycle, never when nothing at all is scheduled.
// In every cycle of [now, NextEvent) a call of Cycle would change only
// what SkipTo advances. It is deliberately conservative — a queue that
// has to be scanned, a replay loop that backs off one cycle at a time
// and a core that has never been clocked all answer now.
//
// The machine asks before every cycle, so the answer of a busy core must
// cost next to nothing: a completion that is due — most cycles of a busy
// guest have one — is tested here, where the compiler inlines it into
// the caller's loop, and the rest only otherwise.
func (c *Core) NextEvent(now uint64) uint64 {
	if len(c.compl) > 0 && c.compl[0].due <= now {
		return now
	}
	return c.nextEvent(now)
}

// nextEvent is NextEvent for a core with no completion due: the tests of
// the other stages, in the order of Cycle.
func (c *Core) nextEvent(now uint64) uint64 {
	h := never
	if len(c.compl) > 0 {
		h = c.compl[0].due // writeback: the earliest scheduled completion
	}
	// Issue: a queue sleeps until wakeAt; 0 means it must be scanned.
	for q := range c.iqs {
		w := c.iqs[q].wakeAt
		if w <= now {
			return now
		}
		h = min(h, w)
	}
	paused := c.commitPaused()
	for _, th := range c.threads {
		// Commit: an event to deliver, a fetch fault to raise on an empty
		// pipeline, or a complete instruction at the head of the ROB.
		if !paused {
			if th.ctx.IF() && c.sys.EventPending(th.ctx) {
				return now
			}
			if th.robCount == 0 {
				if th.fetchFault != uops.FaultNone && th.fetchQ.len() == 0 {
					return now
				}
			} else if _, complete, _ := c.groupStatus(th); complete {
				return now
			}
		}
		// Rename: blocked, or nothing to rename.
		if th.fetchQ.len() > 0 {
			u := &th.fetchQ.at(0).uop
			if _, stall := c.renameCheck(th, u, classOf(u)); stall == renameOK {
				return now
			}
		}
		// Fetch: halted, faulted, queue full, or stalled until a known cycle.
		if th.ctx.Running && th.fetchFault == uops.FaultNone && !th.fetchQ.full() {
			if th.fetchStallUntil <= now {
				return now
			}
			h = min(h, th.fetchStallUntil)
		}
	}
	// The watchdog reports a livelock in the cycle lastProgress +
	// watchdogCycles: that cycle runs, and its report carries that cycle.
	if !c.progressInit {
		return now
	}
	if c.watchdogCycles > 0 && !paused && !c.Idle() {
		h = min(h, max(now, c.lastProgress+c.watchdogCycles))
	}
	return h
}

// commitPaused reports whether a co-simulation commit limit holds the
// commit stage (the watchdog counts such cycles as progress).
func (c *Core) commitPaused() bool {
	return c.commitLimit > 0 && c.cInsns.Value() >= c.commitLimit
}

// stalledThreads counts the threads whose rename stage adds one to
// stall.rob_full or to stall.iq_full in every cycle of a quiet span.
func (c *Core) stalledThreads() (rob, iq int64) {
	for _, th := range c.threads {
		if th.fetchQ.len() == 0 {
			continue
		}
		u := &th.fetchQ.at(0).uop
		switch _, stall := c.renameCheck(th, u, classOf(u)); stall {
		case stallROB:
			rob++
		case stallIQ:
			iq++
		}
	}
	return rob, iq
}

// SkipTo accounts for the cycles [from, to) that the machine advances
// the clock over without calling Cycle; NextEvent(from) ≥ to must hold
// for every core of the machine, and nothing outside the cores may be
// due before to. A stalled span moves what Cycle would have moved in
// each of its cycles: the cycle counter, one stall count per blocked
// thread, and the watchdog's view of progress. A halted span (every VCPU
// of the machine asleep until a timer: the cores are not clocked, so
// their cycle counters stand still) is sleep, not a stall: it only
// rebases the watchdog, or the first cycle after a multi-billion-cycle
// timer gap would be reported as a livelock.
//
// With the auditor on (SetAudit) a stalled span is not jumped: each of
// its cycles goes through the ordinary Cycle — auditing at its cadence —
// and the result is compared with the account above; a difference is a
// KindInvariant report. Every audited run, the conformance campaigns
// among them, thereby tests NextEvent against the stages on each span,
// and an audited machine is the stepped reference of an unaudited one.
func (c *Core) SkipTo(from, to uint64, halted bool) error {
	if halted {
		c.progressInit, c.lastProgress = true, to
		return nil
	}
	n := int64(to - from)
	rob, iq := c.stalledThreads()
	cycles := c.cCycles.Value() + n
	robFull, iqFull := c.cFetchStallROB.Value()+n*rob, c.cFetchStallIQ.Value()+n*iq
	progress := c.lastProgress
	if c.Idle() || c.commitPaused() {
		progress = to - 1 // checkWatchdog counts each such cycle as progress
	}
	if c.auditEvery == 0 {
		c.cCycles.Set(cycles)
		c.cFetchStallROB.Set(robFull)
		c.cFetchStallIQ.Set(iqFull)
		c.lastProgress = progress
		c.now = to - 1
		return nil
	}
	state := c.quietState()
	for cyc := from; cyc < to; cyc++ {
		if err := c.Cycle(cyc); err != nil {
			return err
		}
	}
	if c.quietState() != state || c.cCycles.Value() != cycles || c.cFetchStallROB.Value() != robFull ||
		c.cFetchStallIQ.Value() != iqFull || c.lastProgress != progress {
		return c.invariantErr("core %d: cycles %d to %d were predicted quiet, but a stage changed pipeline state, a counter other than cycles / stall.rob_full / stall.iq_full, or the watchdog (cycles %d want %d, rob_full %d want %d, iq_full %d want %d, last progress %d want %d)",
			c.ID, from, to-1, c.cCycles.Value(), cycles, c.cFetchStallROB.Value(), robFull,
			c.cFetchStallIQ.Value(), iqFull, c.lastProgress, progress)
	}
	return nil
}

// quietState hashes everything a quiet cycle must leave alone: the
// rename sequence number, the occupancy and position of every queue,
// the fetch state, and every counter of the core but the three a quiet
// cycle moves.
func (c *Core) quietState() uint64 {
	h := c.seq
	mix := func(v uint64) { h = (h ^ v) * 0x100000001b3 }
	mix(uint64(len(c.compl)))
	mix(uint64(len(c.free)))
	for q := range c.iqs {
		mix(uint64(len(c.iqs[q].ents)))
		mix(c.iqs[q].wakeAt)
	}
	for _, th := range c.threads {
		for _, v := range [...]int{th.robHead, th.robCount, th.fetchQ.head, th.fetchQ.n,
			th.ldq.n, th.stq.n, th.bbIdx} {
			mix(uint64(v))
		}
		mix(th.fetchRIP)
		mix(th.fetchStallUntil)
		mix(uint64(th.fetchFault))
		mix(th.ctx.RIP)
	}
	for _, ctr := range [...]*stats.Counter{c.cInsns, c.cUops, c.cBranches, c.cMispredicts,
		c.cTaken, c.cLoads, c.cStores, c.cDTLBMiss, c.cITLBMiss, c.cWalks, c.cReplays,
		c.cBankReplays, c.cForwards, c.cFlushes, c.cAssists, c.cInterrupts, c.cLockReplays,
		c.cSMC, c.cLoadSpecFlush, c.cKernelInsns, c.cUserInsns} {
		mix(uint64(ctr.Value()))
	}
	return h
}
