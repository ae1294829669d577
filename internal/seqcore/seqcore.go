// Package seqcore implements the in-order sequential core: a fast
// functional uop interpreter with no timing model. It serves three
// roles from the paper: the rapid-testing/microcode-debugging core, the
// reference half of co-simulation (PTLsim's "native mode" stands in for
// host execution, which a simulator written in Go cannot hand off to
// real silicon), and the execution engine behind the hardware-counter
// reference model.
package seqcore

import (
	"errors"
	"fmt"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/decode"
	"ptlsim/internal/evlog"
	"ptlsim/internal/mem"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// StepKind describes what a Step call did.
type StepKind int

// Step outcomes.
const (
	StepRan  StepKind = iota // executed at least one instruction
	StepIdle                 // VCPU halted with no pending event
	StepOn                   // ran a block that left through a branch or its fall-through, no event deliverable: the next may follow at once
)

// errShadowFault is the sentinel a phantom-mode core returns instead of
// delivering an exception through the guest trap entry; the faulting
// vector is left in Core.shadowFault for the caller.
var errShadowFault = fmt.Errorf("seqcore: shadow fault")

// Observer receives the architectural event stream of the functional
// core: the hardware-counter reference model (internal/k8) feeds these
// events through silicon-like cache/TLB/predictor structures to emulate
// what real performance counters would report.
type Observer interface {
	// OnInsn fires at each committed x86 instruction; uopCount is the
	// number of uops the instruction expanded to.
	OnInsn(rip uint64, kernel bool, uopCount int)
	// OnLoad/OnStore fire per data access with virtual and physical
	// addresses.
	OnLoad(va, pa uint64, size uint8)
	OnStore(va, pa uint64, size uint8)
	// OnBranch fires at each branch with its outcome.
	OnBranch(rip uint64, taken bool, target uint64, kind uops.BranchKind)
	// OnFetchBlock fires once per basic block entered, with the
	// physical address of its first byte.
	OnFetchBlock(rip, pa uint64)
	// OnAddressSpaceSwitch fires when CR3 changed (context switch):
	// untagged TLBs flush here, exactly as on real silicon.
	OnAddressSpaceSwitch(cr3 uint64)
}

// Core is one sequential functional core bound to a VCPU context.
type Core struct {
	Ctx *vm.Context
	Sys vm.System

	// Obs, when non-nil, receives the event stream.
	Obs    Observer
	obsCR3 uint64

	bb *bbcache.Cache

	// Per-instruction atomicity buffers: the stores an instruction
	// buffers until it commits, and the registers before an instruction
	// that may have to be rolled back.
	stores []mem.Store
	saved  [uops.NumArchRegs]uint64

	// What the steps of a lowered block leave for the loop that runs
	// them: a raised fault or an error, a load's address and a branch's
	// target (for the observer).
	fault     uops.Fault
	err       error
	va        uint64
	target    uint64
	lowSteps  []step // lowering scratch, reused block to block
	lowGroups []group
	// Lowered blocks are carved from these; see lower.go.
	blocks decode.Chunks[block]
	steps  decode.Chunks[step]
	groups decode.Chunks[group]

	// MaxInsnsPerStep bounds one Step call (0 = one basic block).
	MaxInsnsPerStep int

	links [linkEntries]link // the successor table (see fetch), allocated with the core

	// phantom puts the core in shadow-oracle mode (see NewShadow):
	// stores are buffered in shadowStores instead of written to physical
	// memory, faults are returned to the StepShadow caller instead of
	// delivered through the guest trap entry, and microcode assists are
	// refused (the primary engine never routes an assist through the
	// clean-commit path a shadow mirrors).
	phantom      bool
	shadowStores []mem.Store
	shadowFault  uops.Fault
	// shadowBlock/shadowIdx carry the intra-block position (a group
	// index) between StepShadow calls: consecutive uop groups can share
	// one RIP (a REP instruction is a NoCount iteration-check group
	// followed by a body group, both at the REP's address), so the
	// resume point cannot be recovered from RIP alone.
	shadowBlock *block
	shadowIdx   int

	// Statistics.
	insns, uopsC, branches, takenBranches *stats.Counter
	loads, storesC, smcFlushes            *stats.Counter

	// ev, when non-nil, receives a commit event per instruction. The
	// functional core has no cycle clock, so the committed-instruction
	// count stands in for the cycle. Shadow/phantom cores never get a
	// log attached — their event stream would duplicate the primary's.
	ev     *evlog.Log
	evCore uint8
	evSeq  uint64
}

// New creates a sequential core. The basic block cache may be shared
// with other cores of the same domain.
func New(ctx *vm.Context, sys vm.System, bb *bbcache.Cache, tree *stats.Tree, prefix string) *Core {
	return &Core{
		Ctx: ctx, Sys: sys, bb: bb,
		blocks:        decode.Chunks[block]{Size: 64},
		steps:         decode.Chunks[step]{Size: 512},
		groups:        decode.Chunks[group]{Size: 256},
		insns:         tree.Counter(prefix + ".insns"),
		uopsC:         tree.Counter(prefix + ".uops"),
		branches:      tree.Counter(prefix + ".branches"),
		takenBranches: tree.Counter(prefix + ".taken_branches"),
		loads:         tree.Counter(prefix + ".loads"),
		storesC:       tree.Counter(prefix + ".stores"),
		smcFlushes:    tree.Counter(prefix + ".smc_flushes"),
	}
}

// SetEventLog attaches a pipeline event log recording one commit event
// per committed instruction (nil detaches). coreID tags the events.
func (c *Core) SetEventLog(l *evlog.Log, coreID uint8) {
	c.ev = l
	c.evCore = coreID
}

// evCommit records one committed-instruction event; cycle is the
// committed-instruction count including it.
func (c *Core) evCommit(cycle int64, rip uint64, op uops.Op) {
	c.evSeq++
	c.ev.Record(evlog.Event{Cycle: uint64(cycle), Seq: c.evSeq,
		RIP: rip, Op: uint16(op), Stage: evlog.StageCommit,
		Flags: evlog.FlagSeqCore, Core: c.evCore})
}

// NewShadow creates a phantom-mode core: a functional shadow that
// executes against ctx but never mutates guest memory (stores are
// buffered), never delivers exceptions or events, and refuses assists.
// The lockstep commit oracle (internal/selfcheck) drives one of these
// per hardware thread. The basic block cache and stats tree must be
// private to the shadow so the primary engine's statistics stay
// bit-identical whether or not a shadow is attached.
func NewShadow(ctx *vm.Context, sys vm.System, bb *bbcache.Cache, tree *stats.Tree, prefix string) *Core {
	c := New(ctx, sys, bb, tree, prefix)
	c.phantom = true
	return c
}

// StepShadow executes one x86 instruction group (SOM..EOM) at the
// context's current RIP, advancing RIP past it. noCount names the kind
// of group the primary is committing: a NoCount pseudo-group (a REP
// iteration check) or a counted instruction. The distinction matters
// because both kinds can live at the same RIP and the primary does not
// commit them strictly alternately — the check's not-taken successor
// is the body group at its own address, so a mispredicted check is
// re-decoded and re-commits, possibly several times in a row — and the
// shadow realigns on the flag rather than executing the body a commit
// early. StepShadow returns the group's buffered stores (valid until
// the next call) and any architectural fault the group raised; faults
// are reported, not delivered. Only valid on phantom cores.
func (c *Core) StepShadow(noCount bool) ([]mem.Store, uops.Fault, error) {
	if !c.phantom {
		return nil, uops.FaultNone, fmt.Errorf("seqcore: StepShadow on a non-phantom core")
	}
	c.shadowStores = c.shadowStores[:0]
	c.shadowFault = uops.FaultNone
	// Resume mid-block when the held position still matches RIP (the
	// only way to advance from a REP check group to its body group);
	// otherwise fetch fresh. A primary re-committing the check while
	// the shadow holds the body (the misprediction case above) also
	// refetches: the check group is always first in a block fetched at
	// the shared RIP.
	b, g := c.shadowBlock, c.shadowIdx
	if b == nil || g >= len(b.groups)-1 || b.groups[g].rip != c.Ctx.RIP ||
		(noCount && !b.groups[g].noCount) {
		var fault uops.Fault
		if b, fault = c.fetch(); fault != uops.FaultNone {
			return nil, fault, nil
		}
		g = 0
	}
	c.shadowBlock, c.shadowIdx = nil, 0
	for {
		matched := b.groups[g].noCount == noCount
		st, err := c.run(b, g, g+1)
		left := st != stNext
		if err != nil {
			if errors.Is(err, errShadowFault) {
				return nil, c.shadowFault, nil
			}
			return nil, uops.FaultNone, err
		}
		g++
		if !left && g < len(b.groups)-1 {
			c.shadowBlock, c.shadowIdx = b, g
		}
		if matched || left || g >= len(b.groups)-1 {
			return c.shadowStores, uops.FaultNone, nil
		}
		// A stateless NoCount pseudo-group sat in front of the counted
		// group the primary is committing (a freshly fetched REP block
		// whose check falls through): execute on into the next group.
	}
}

// ResetShadow discards the held intra-block position; the oracle calls
// it whenever the primary re-architects state outside the clean-commit
// path (resync), since the shadow's next group then comes from a fresh
// fetch at the adopted RIP.
func (c *Core) ResetShadow() {
	c.shadowBlock, c.shadowIdx = nil, 0
}

// Insns returns the number of x86 instructions committed by this core.
func (c *Core) Insns() int64 { return c.insns.Value() }

// rollback discards the current instruction's buffered stores and, if
// it saved the registers (undo), restores them.
func (c *Core) rollback(undo bool) {
	if undo {
		c.Ctx.Regs = c.saved
	}
	c.stores = c.stores[:0]
}

// commitStores applies the instruction's buffered stores and performs
// the SMC store-side check. A phantom core moves them to the comparison
// buffer instead, since the primary engine performs the real writes at
// its own commit; its private block cache must still drop written code
// pages or it would replay stale translations after self-modifying
// code.
func (c *Core) commitStores() {
	for _, s := range c.stores {
		if !c.phantom {
			_ = c.Ctx.M.PM.WriteStore(s)
		}
		c.smcFlushes.Add(int64(c.bb.InvalidateStore(s)))
	}
	if c.phantom {
		c.shadowStores = append(c.shadowStores, c.stores...)
	}
	c.stores = c.stores[:0]
}

const linkEntries = 512 // successor-table entries (24 KiB; the rsync guest runs under 400 blocks)

// link is a successor-table entry: the block fetched at rip and what that depended on.
type link struct {
	rip, cr3, xgen, bgen uint64 // xgen: PhysMem's translation generation, bgen: the BB cache's
	b                    *block
	kernel               bool
}

// fetch returns the lowered block at the context's RIP: from the
// successor table while its entry holds (DESIGN.md §5, "Native mode runs
// to the next event"), else through the I-side translation and Get.
func (c *Core) fetch() (*block, uops.Fault) {
	ctx := c.Ctx
	chain := c.Obs == nil && ctx.CachesTranslations()
	l := &c.links[(ctx.RIP^ctx.RIP>>9)&(linkEntries-1)]
	if chain && l.rip == ctx.RIP && l.b != nil && l.cr3 == ctx.CR3 && l.kernel == ctx.Kernel &&
		l.xgen == ctx.M.PM.TranslationGen() && c.bb.Linked(l.bgen) {
		return l.b, uops.FaultNone
	}
	pa, fault := ctx.Translate(ctx.RIP, false, true)
	if fault != uops.FaultNone {
		return nil, fault
	}
	if c.Obs != nil {
		c.Obs.OnFetchBlock(ctx.RIP, pa)
	}
	bb, fault := c.bb.Get(bbcache.Key{RIP: ctx.RIP, MFN: pa >> mem.PageShift, Kernel: ctx.Kernel}, ctx)
	if fault != uops.FaultNone {
		return nil, fault
	}
	b := c.lowered(bb)
	if chain {
		*l = link{rip: ctx.RIP, cr3: ctx.CR3, kernel: ctx.Kernel, xgen: ctx.M.PM.TranslationGen(), bgen: c.bb.Gen(), b: b}
	}
	return b, uops.FaultNone
}

// deliverFault routes a uop fault at rip through the guest's trap
// entry (the faulting instruction is already rolled back). A phantom
// core instead surfaces the fault to its StepShadow caller: delivery
// would write a bounce frame into guest memory, which only the primary
// engine may do.
func (c *Core) deliverFault(f uops.Fault, rip uint64) error {
	c.Ctx.RIP = rip
	if c.phantom {
		c.shadowFault = f
		return errShadowFault
	}
	vec, errInfo := vm.FaultVector(c.Ctx, f)
	return c.Ctx.DeliverException(vec, errInfo, rip)
}

// Step executes up to one basic block (or MaxInsnsPerStep x86
// instructions, if set). Event upcalls are delivered at instruction
// boundaries before the block starts.
func (c *Core) Step() (StepKind, error) {
	ctx := c.Ctx
	if !ctx.Running {
		if !c.Sys.EventPending(ctx) || !ctx.IF() {
			return StepIdle, nil
		}
		ctx.Running = true
	}
	if ctx.IF() && c.Sys.EventPending(ctx) {
		if err := ctx.DeliverEvent(); err != nil {
			return StepRan, err
		}
	}

	if c.Obs != nil && ctx.CR3 != c.obsCR3 {
		c.obsCR3 = ctx.CR3
		c.Obs.OnAddressSpaceSwitch(ctx.CR3)
	}

	b, fault := c.fetch()
	if fault != uops.FaultNone {
		c.rollback(false)
		return StepRan, c.deliverFault(fault, ctx.RIP)
	}
	to := len(b.groups) - 1
	if c.MaxInsnsPerStep > 0 {
		to = b.limit(c.MaxInsnsPerStep)
	}
	if st, err := c.run(b, 0, to); st > stLeft || ctx.IF() && c.Sys.EventPending(ctx) {
		return StepRan, err
	}
	return StepOn, nil
}

// loadValue reads memory for a load uop, forwarding from the current
// instruction's buffered stores on an exact address/size match.
func (c *Core) loadValue(va uint64, size uint8) (uint64, uops.Fault) {
	for i := len(c.stores) - 1; i >= 0; i-- {
		if c.stores[i].VA == va && c.stores[i].Size == size {
			return c.stores[i].Val, uops.FaultNone
		}
	}
	return c.Ctx.ReadVirt(va, size)
}
