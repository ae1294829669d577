// Package selfcheck provides online self-checking for the out-of-order
// core: a lockstep commit oracle that shadows every committed x86
// instruction on a phantom sequential core and compares architectural
// state at commit boundaries, and the configuration for the pipeline
// invariant auditor (ooo.Audit). Where co-simulation
// (internal/cosim) detects wrong execution only at end-of-run
// comparison points, the oracle catches it at the first diverging
// commit, while the full pipeline state that produced it is still in
// hand.
package selfcheck

import (
	"fmt"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/mem"
	"ptlsim/internal/seqcore"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// Config selects the self-checking instrumentation for a machine. The
// zero value disables everything; snapshot.ConfigHash excludes this
// struct from checkpoint compatibility hashes so instrumentation can be
// toggled across a restore.
type Config struct {
	// Oracle attaches the lockstep commit oracle to every OoO core.
	Oracle bool
	// Interval samples the oracle's architectural register compare
	// every N committed instructions (<=1 compares at every commit).
	// The shadow still executes every committed instruction — the
	// continuity is what makes sticky in-place state corruption
	// detectable — so the interval bounds detection latency, not the
	// shadow-execution cost. Store traffic is compared at every commit
	// regardless (the lists are already in hand).
	Interval int64
	// Audit arms the pipeline invariant auditor (ooo.Audit).
	Audit bool
	// AuditEvery runs the auditor every N cycles (<=0 with Audit set
	// defaults to every 64 cycles).
	AuditEvery uint64
}

// Enabled reports whether any instrumentation is selected.
func (c Config) Enabled() bool { return c.Oracle || c.Audit }

// EffectiveInterval is the compare interval with the default applied.
func (c Config) EffectiveInterval() int64 {
	if c.Interval < 1 {
		return 1
	}
	return c.Interval
}

// EffectiveAuditEvery is the audit cadence with the default applied.
func (c Config) EffectiveAuditEvery() uint64 {
	if c.AuditEvery < 1 {
		return 64
	}
	return c.AuditEvery
}

// shadowThread is one hardware thread's phantom reference core plus
// the in-flight state between a PreCommit and its PostCommit.
type shadowThread struct {
	ctx  *vm.Context
	core *seqcore.Core

	// Results of the PreCommit shadow step, consumed at PostCommit.
	stores []mem.Store
	fault  uops.Fault

	// lastCompared/lastInsns track the sampled-compare schedule and the
	// commit index attributed to PreCommit-time failures.
	lastCompared int64
	lastInsns    int64
}

// Oracle implements ooo.CommitChecker: one phantom seqcore per
// hardware thread, advanced one instruction group per OoO commit. Its
// statistics tree and basic block cache are private so the machine's
// own stats stay bit-identical whether or not the oracle is attached.
type Oracle struct {
	sys      vm.System
	interval int64
	shadows  map[int]*shadowThread
	bbc      *bbcache.Cache
}

// NewOracle creates a commit oracle for one core's threads. Shadows
// are created when the core announces each thread via Resync (which
// ooo.SetChecker fires at attach time).
func NewOracle(sys vm.System, interval int64) *Oracle {
	if interval < 1 {
		interval = 1
	}
	tree := stats.NewTree()
	return &Oracle{
		sys:      sys,
		interval: interval,
		shadows:  make(map[int]*shadowThread),
		bbc:      bbcache.New(4096, tree, "selfcheck.bbcache"),
	}
}

// Resync adopts the primary's architectural state wholesale: called at
// attach time and after every full pipeline flush (exceptions,
// interrupts, assists, SMC restarts re-architect state outside the
// clean-commit path the shadow mirrors).
func (o *Oracle) Resync(t int, ctx *vm.Context) {
	sh := o.shadows[t]
	if sh == nil {
		shadowCtx := ctx.Clone()
		sh = &shadowThread{
			ctx:  shadowCtx,
			core: seqcore.NewShadow(shadowCtx, o.sys, o.bbc, stats.NewTree(), "shadow"),
		}
		o.shadows[t] = sh
	} else {
		*sh.ctx = *ctx
	}
	sh.core.ResetShadow()
	sh.stores = nil
	sh.fault = uops.FaultNone
}

// PreCommit advances the shadow by the instruction group about to
// commit, against pre-group memory (the primary applies the group's
// stores only afterwards, so an RMW group's loads see the same values
// on both sides).
func (o *Oracle) PreCommit(t int, ctx *vm.Context, rip uint64, noCount bool) error {
	sh := o.shadows[t]
	if sh == nil {
		o.Resync(t, ctx)
		sh = o.shadows[t]
	}
	if sh.ctx.RIP != rip {
		return o.divergeErr(sh, ctx, sh.lastInsns,
			fmt.Sprintf("thread %d: control flow diverged: primary committing rip %#x, shadow at %#x",
				t, rip, sh.ctx.RIP))
	}
	stores, fault, err := sh.core.StepShadow(noCount)
	if err != nil {
		return o.divergeErr(sh, ctx, sh.lastInsns,
			fmt.Sprintf("thread %d: shadow execution failed at rip %#x: %v", t, rip, err))
	}
	if fault != uops.FaultNone {
		return o.divergeErr(sh, ctx, sh.lastInsns,
			fmt.Sprintf("thread %d: shadow faulted (%v) at rip %#x where primary commits cleanly",
				t, fault, rip))
	}
	sh.stores = stores
	sh.fault = fault
	return nil
}

// PostCommit compares the shadow against the primary's post-group
// state: store traffic at every commit, the architectural register
// file on the sampling schedule.
func (o *Oracle) PostCommit(t int, ctx *vm.Context, insns int64, stores []mem.Store) error {
	sh := o.shadows[t]
	if sh == nil {
		return nil
	}
	sh.lastInsns = insns
	if len(stores) != len(sh.stores) {
		return o.divergeErr(sh, ctx, insns,
			fmt.Sprintf("thread %d: store count mismatch at rip %#x: primary %d, shadow %d",
				t, ctx.RIP, len(stores), len(sh.stores)))
	}
	for i := range stores {
		p, s := stores[i], sh.stores[i]
		if p.VA != s.VA || p.Size != s.Size || p.Val != s.Val {
			return o.divergeErr(sh, ctx, insns,
				fmt.Sprintf("thread %d: store %d mismatch: primary [va %#x size %d val %#x], shadow [va %#x size %d val %#x]",
					t, i, p.VA, p.Size, p.Val, s.VA, s.Size, s.Val))
		}
	}
	if insns-sh.lastCompared >= o.interval {
		sh.lastCompared = insns
		if !vm.ArchEqual(sh.ctx, ctx) {
			return o.divergeErr(sh, ctx, insns,
				fmt.Sprintf("thread %d: architectural state diverged: %s", t, vm.DiffArch(sh.ctx, ctx)))
		}
	}
	return nil
}

// divergeErr builds a structured divergence report; the owning core
// decorates it with the cycle, pipeline dump and recent commit trail.
func (o *Oracle) divergeErr(sh *shadowThread, ctx *vm.Context, insns int64, msg string) error {
	return &simerr.SimError{
		Kind:     simerr.KindDivergence,
		VCPU:     ctx.ID,
		RIP:      ctx.RIP,
		Commit:   insns,
		Message:  msg,
		Diff:     vm.DiffArch(sh.ctx, ctx),
		Expected: sh.ctx.DumpArch(),
		Actual:   ctx.DumpArch(),
	}
}
