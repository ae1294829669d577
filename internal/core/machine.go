// Package core is the public facade of the simulator: a Machine binds
// a paravirtualized domain to PTLsim's core models and provides the
// simulation control the paper describes — native-mode execution (the
// fast functional engine standing in for host silicon), cycle accurate
// simulation on the out-of-order core, seamless switching between the
// two driven by ptlcall command lists, statistics snapshots, and the
// per-cycle user/kernel/idle accounting behind Figure 2.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/cache"
	"ptlsim/internal/evlog"
	"ptlsim/internal/hv"
	"ptlsim/internal/ooo"
	"ptlsim/internal/selfcheck"
	"ptlsim/internal/seqcore"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
)

// Mode selects the execution engine.
type Mode int

// Execution modes.
const (
	ModeNative Mode = iota // fast functional execution
	ModeSim                // cycle accurate out-of-order model
)

// Config configures a Machine.
type Config struct {
	Core ooo.Config
	// NativeCPI is how many virtual cycles each instruction advances
	// the clock in native mode (time virtualization for timers).
	NativeCPI float64
	// SnapshotCycles takes a statistics snapshot every N cycles
	// (0 disables); the paper used one per 2.2M cycles.
	SnapshotCycles uint64
	// ThreadsPerCore assigns this many VCPUs to each core (SMT); the
	// remainder get their own cores.
	ThreadsPerCore int
	// Coherence selects the multi-core cache coherence model: nil
	// means per-core hierarchies with instant visibility.
	UseMOESI bool
	// BBCacheCapacity bounds the basic block cache (0 = default 16384).
	// Setting 1 effectively disables translation caching (the ablation
	// for the paper's §2.1 claim that the BB cache is a simulator
	// speed optimization with no architectural effect).
	BBCacheCapacity int
	// WatchdogCycles arms the per-core commit-progress watchdog: a
	// core that makes no forward progress for this many cycles while
	// work is in flight fails with a structured livelock SimError
	// carrying a pipeline dump (0 disables).
	WatchdogCycles uint64
	// SelfCheck selects the online self-checking instrumentation (the
	// lockstep commit oracle and the pipeline invariant auditor).
	// Excluded from checkpoint compatibility hashes so instrumentation
	// can be toggled across a restore.
	SelfCheck selfcheck.Config
	// TimingSeed, when non-zero, deterministically scrambles
	// timing-only microarchitectural state (branch predictor tables)
	// at construction. Architectural results must be invariant under
	// any seed — conformance fuzzing runs each case under several
	// seeds to check that. Excluded from checkpoint compatibility
	// hashes like SelfCheck: varying it must never change what a
	// restored run computes.
	TimingSeed int64
}

// Validate checks the machine configuration, surfacing the core
// model's geometry constraints as a usable error instead of a panic
// during construction.
func (cfg Config) Validate() error {
	if err := cfg.Core.Validate(); err != nil {
		return err
	}
	if cfg.NativeCPI < 0 {
		return fmt.Errorf("core: NativeCPI %g must be non-negative", cfg.NativeCPI)
	}
	if cfg.ThreadsPerCore > cfg.Core.MaxThreads {
		// NewMachine widens MaxThreads automatically; only a widened
		// config that then fails core validation is a real error.
		widened := cfg.Core
		widened.MaxThreads = cfg.ThreadsPerCore
		return widened.Validate()
	}
	return nil
}

// DefaultConfig runs the default out-of-order core.
func DefaultConfig() Config {
	return Config{Core: ooo.DefaultConfig(), NativeCPI: 1.0, ThreadsPerCore: 1}
}

// Machine drives one domain through the simulator.
type Machine struct {
	Dom  *hv.Domain
	Tree *stats.Tree

	cfg  Config
	mode Mode

	bbc      *bbcache.Cache
	seqCores []*seqcore.Core
	oooCores []*ooo.Core

	// Cycle is the domain's virtual cycle counter (shared with the
	// hypervisor clock).
	Cycle uint64

	// Stepped and Jumped split the ModeSim cycles in which some VCPU was
	// awake by how the host simulated them: Stepped cycles ran every
	// core's pipeline stages, Jumped cycles were advanced in bulk because
	// no stage of any core could act in them (see horizon; under the
	// auditor the cores step through those too, to check that). They
	// describe the host's work, not the guest's, and so are plain fields:
	// the stats tree is part of a run's simulated outcome.
	Stepped, Jumped uint64

	collector *stats.Collector

	// rounds counts native-mode rounds (a basic block per VCPU) and
	// simulation-mode steps, for the run loops' context polls.
	rounds uint64

	// Pending ptlcall command phases.
	phases []phase

	// Stop conditions for the current phase.
	stopInsns int64 // committed-instruction budget (-1 = unlimited)
	baseInsns int64

	// stepHook runs after every successful Step (fault injection and
	// other instrumentation).
	stepHook func(*Machine)

	// ev is the attached pipeline event log (nil when disabled); the
	// same ring is shared by every core, so events interleave in global
	// pipeline-activity order.
	ev *evlog.Log

	cyclesNative, cyclesSim              *stats.Counter
	cyclesUser, cyclesKernel, cyclesIdle *stats.Counter
	modeSwitches                         *stats.Counter
}

type phase struct {
	mode      Mode
	stopInsns int64
	kill      bool
}

// NewMachine wires a domain to the simulator.
func NewMachine(dom *hv.Domain, tree *stats.Tree, cfg Config) *Machine {
	m := &Machine{
		Dom:  dom,
		Tree: tree,
		cfg:  cfg,
		mode: ModeNative,

		cyclesNative: tree.Counter("external.cycles_in_mode.native"),
		cyclesSim:    tree.Counter("external.cycles_in_mode.sim"),
		cyclesUser:   tree.Counter("external.cycles_in_mode.user"),
		cyclesKernel: tree.Counter("external.cycles_in_mode.kernel"),
		cyclesIdle:   tree.Counter("external.cycles_in_mode.idle"),
		modeSwitches: tree.Counter("external.mode_switches"),
	}
	if cfg.NativeCPI <= 0 {
		m.cfg.NativeCPI = 1.0
	}
	cap := cfg.BBCacheCapacity
	if cap <= 0 {
		cap = 16384
	}
	m.bbc = bbcache.New(cap, tree, "bbcache")
	m.stopInsns = -1
	if cfg.SnapshotCycles > 0 {
		m.collector = stats.NewCollector(tree, cfg.SnapshotCycles)
	}
	// Sequential cores: one per VCPU.
	for i, ctx := range dom.VCPUs {
		sc := seqcore.New(ctx, dom, m.bbc, tree, fmt.Sprintf("seq%d", i))
		m.seqCores = append(m.seqCores, sc)
	}
	// Out-of-order cores: ThreadsPerCore VCPUs each.
	tpc := cfg.ThreadsPerCore
	if tpc <= 0 {
		tpc = 1
	}
	coreCfg := cfg.Core
	if tpc > coreCfg.MaxThreads {
		coreCfg.MaxThreads = tpc
	}
	var coh cache.Controller
	ncores := (len(dom.VCPUs) + tpc - 1) / tpc
	if ncores > 1 {
		if cfg.UseMOESI {
			coh = cache.NewMOESICoherence(tree, 20, 30)
		} else {
			coh = cache.NewInstantCoherence(tree)
		}
	}
	il := ooo.NewInterlock()
	for c := 0; c < ncores; c++ {
		lo := c * tpc
		hi := lo + tpc
		if hi > len(dom.VCPUs) {
			hi = len(dom.VCPUs)
		}
		oc := ooo.New(c, coreCfg, dom.VCPUs[lo:hi], dom, m.bbc, tree, fmt.Sprintf("core%d", c))
		oc.SetInterlock(il)
		if cfg.WatchdogCycles > 0 {
			oc.SetWatchdog(cfg.WatchdogCycles)
		}
		if cfg.SelfCheck.Oracle {
			oc.SetChecker(selfcheck.NewOracle(dom, cfg.SelfCheck.EffectiveInterval()))
		}
		if cfg.SelfCheck.Audit {
			oc.SetAudit(cfg.SelfCheck.EffectiveAuditEvery())
		}
		if cfg.TimingSeed != 0 {
			oc.SeedTimingState(cfg.TimingSeed + int64(c))
		}
		if coh != nil {
			oc.Hierarchy().AttachCoherence(coh, c)
		}
		m.oooCores = append(m.oooCores, oc)
	}
	return m
}

// Mode returns the current execution mode.
func (m *Machine) Mode() Mode { return m.mode }

// Config returns the machine configuration; checkpoint restore builds
// an identical machine from it.
func (m *Machine) Config() Config { return m.cfg }

// SetStepHook installs fn to run after every successful Step (fault
// injection instrumentation; nil clears it). A step may cover many
// cycles (see Step) and the hook runs once per step, not once per
// cycle: a hook may act on what an instruction commit changes (the
// fault injector's triggers are committed-instruction counts, and
// Insns() moves only in cycles that are stepped one by one, so its
// injections land on the cycles they always did) but must not wait for
// a particular cycle to go by.
func (m *Machine) SetStepHook(fn func(*Machine)) { m.stepHook = fn }

// StepHook returns the installed step hook so checkpointing can carry
// instrumentation over to a restored machine.
func (m *Machine) StepHook() func(*Machine) { return m.stepHook }

// SetEventLog attaches a pipeline event log to every core of the
// machine (nil detaches). The supervisor carries the log across
// checkpoint restores exactly like the step hook.
func (m *Machine) SetEventLog(l *evlog.Log) {
	m.ev = l
	for _, c := range m.oooCores {
		c.SetEventLog(l)
	}
	for i, c := range m.seqCores {
		c.SetEventLog(l, uint8(i))
	}
}

// EventLog returns the attached event log (nil when disabled).
func (m *Machine) EventLog() *evlog.Log { return m.ev }

// eventTail renders the newest events for SimError attachment.
func (m *Machine) eventTail() string {
	if m.ev == nil || m.ev.Len() == 0 {
		return ""
	}
	return evlog.Text(m.ev.Tail(64))
}

// OOOCores exposes the cycle-accurate cores (stats, tests).
func (m *Machine) OOOCores() []*ooo.Core { return m.oooCores }

// SeqCores exposes the functional cores.
func (m *Machine) SeqCores() []*seqcore.Core { return m.seqCores }

// Insns returns total committed x86 instructions in the current mode's
// engines (native + simulated are tracked separately and summed).
func (m *Machine) Insns() int64 {
	var n int64
	for _, c := range m.seqCores {
		n += c.Insns()
	}
	for _, c := range m.oooCores {
		n += c.Insns()
	}
	return n
}

// SwitchMode changes execution engine at an instruction boundary,
// preserving virtual time (the TSC and all timers run on the shared
// domain clock, so the guest cannot observe the transition).
func (m *Machine) SwitchMode(mode Mode) {
	if mode == m.mode {
		return
	}
	// Flush the out-of-order pipelines on every transition: leaving
	// sim mode discards uncommitted work (each context stays at its
	// last committed boundary); entering sim mode resynchronizes the
	// fetch units with the architectural RIP the native engine
	// advanced to.
	for _, c := range m.oooCores {
		for t := 0; t < c.Threads(); t++ {
			c.FullFlush(t)
		}
	}
	m.mode = mode
	m.modeSwitches.Inc()
}

// accountCycle attributes n cycles to user/kernel/idle based on VCPU0
// (the paper's Figure 2 classification).
func (m *Machine) accountCycle(n uint64) {
	ctx := m.Dom.VCPUs[0]
	switch {
	case !ctx.Running:
		m.cyclesIdle.Add(int64(n))
	case ctx.Kernel:
		m.cyclesKernel.Add(int64(n))
	default:
		m.cyclesUser.Add(int64(n))
	}
}

// settle brings the mode counter, the domain's timers and the collector
// up to the clock after it moved n cycles (each charged by accountCycle).
func (m *Machine) settle(n uint64) {
	if n == 0 {
		return
	}
	if m.mode == ModeNative {
		m.cyclesNative.Add(int64(n))
	} else {
		m.cyclesSim.Add(int64(n))
	}
	m.Dom.Tick(m.Cycle)
	if m.collector != nil {
		m.collector.Tick(m.Cycle)
	}
}

// never is the horizon of a machine in which nothing is scheduled.
const never = ^uint64(0)

// horizon is the machine's next-event clock: it returns the first cycle
// ≥ m.Cycle at which anything can happen — never when nothing ever
// will — and whether the span up to it is a halted one. It is the only
// function that decides how far time may jump; skipTo is the only one
// that moves the clock over a span. bound is the cycle at which the
// calling run loop stops (never for none).
//
// Halted: every VCPU is asleep with nothing in flight (in native mode,
// no functional core could run). Nothing happens before the next timer,
// DMA or trace deadline, the cores are not clocked over the span, and
// the step ends at the deadline without running a cycle there. This
// case deliberately ignores bound and the statistics collector, as the
// idle skip it replaces always has: RunUntilCycle lands on the deadline
// past its target and a snapshot due inside the span is taken after it.
// Capping it at either makes a supervised run of a sleeping guest take
// a checkpoint per interval of the sleep, not one per sleep: the
// checkpoint loop starts a new interval where RunUntilCycle landed, and
// a restored machine's collector starts again from cycle 0 (ROADMAP
// item 1(a)).
//
// Stalled: some VCPU is awake, but no stage of any core can do more than
// count a stall before the earliest of each core's NextEvent and
// nextEvent (a timer that fires inside a miss is seen by the cores in
// the cycle it always was). One busy core or a deadline that is already
// due means no jump. With the pipeline auditor on the span is found the
// same way, but each core then steps through it and checks it
// (ooo.Core.SkipTo).
func (m *Machine) horizon(bound uint64) (h uint64, halted bool) {
	halted = true
	if m.mode == ModeSim {
		for _, ctx := range m.Dom.VCPUs {
			if ctx.Running {
				halted = false
				break
			}
		}
		for i := 0; halted && i < len(m.oooCores); i++ {
			halted = m.oooCores[i].Idle()
		}
	}
	if halted {
		ddl := m.Dom.NextTimerDeadline()
		if ddl == 0 {
			return never, true
		}
		return max(ddl, m.Cycle+1), true
	}
	h = bound
	for _, c := range m.oooCores {
		h = min(h, c.NextEvent(m.Cycle))
	}
	if h <= m.Cycle {
		return m.Cycle, false
	}
	return max(min(h, m.nextEvent(bound)), m.Cycle), false
}

// nextEvent is the first cycle at which something outside the cores can
// happen: bound, the next timer, DMA or trace deadline, or snapshot.
func (m *Machine) nextEvent(bound uint64) uint64 {
	if ddl := m.Dom.NextTimerDeadline(); ddl != 0 {
		bound = min(bound, ddl)
	}
	if m.collector != nil {
		bound = min(bound, m.collector.Next())
	}
	return bound
}

// skipTo moves the clock to cycle h > m.Cycle over a span horizon found
// empty: each core accounts for the cycles it was not called in (the
// per-cycle counters of a stalled span, the watchdog's baseline; an
// audited core reports a span that was not as quiet as predicted), then
// the shared clock, the mode accounting, the domain's timers and the
// collector advance in one piece.
func (m *Machine) skipTo(h uint64, halted bool) error {
	for _, c := range m.oooCores {
		if err := c.SkipTo(m.Cycle, h, halted); err != nil {
			return err
		}
	}
	n := h - m.Cycle
	if !halted {
		m.Jumped += n
	}
	m.accountCycle(n)
	m.Cycle = h
	m.settle(n)
	return nil
}

// stepNative advances native mode to the next event. A round runs one
// basic block on every VCPU and advances virtual time by NativeCPI per
// instruction (at least a cycle), charged to the class VCPU0 has after
// it. With one VCPU, no step hook and no per-step instruction bound,
// rounds follow each other until the cycle reaches nextEvent, the phase's
// instruction stop or the next context poll is reached, or a block does
// not end in seqcore.StepOn (DESIGN.md §5). Only the guest's clock moves
// per round; settle brings the rest up to it when the step ends.
func (m *Machine) stepNative(bound uint64) error {
	chain := len(m.seqCores) == 1 && m.stepHook == nil && m.seqCores[0].MaxInsnsPerStep == 0
	limit, left := m.nextEvent(bound), int64(1<<63-1)
	if m.stopInsns >= 0 {
		left = m.stopInsns - (m.Insns() - m.baseInsns)
	}
	start, insns := m.Cycle, m.seqInsns()
	for {
		m.rounds++
		ran, on := false, chain
		for _, c := range m.seqCores {
			kind, err := c.Step()
			if err != nil {
				m.settle(m.Cycle - start)
				return err
			}
			ran = ran || kind != seqcore.StepIdle
			on = on && kind == seqcore.StepOn
		}
		if !ran { // every VCPU asleep: the first round, as the last one was StepOn
			h, halted := m.horizon(bound)
			if h == never {
				return m.deadlockErr(halted)
			}
			return m.skipTo(h, halted)
		}
		after := m.seqInsns()
		n := max(1, uint64(float64(after-insns)*m.cfg.NativeCPI))
		m.accountCycle(n)
		m.Cycle += n
		left -= after - insns
		if insns = after; !on || m.Cycle >= limit || left <= 0 || m.rounds%ctxCheckInterval == 0 {
			break
		}
		m.Dom.Clock.Cycle = m.Cycle // what an assist in the next block reads
	}
	m.settle(m.Cycle - start)
	return nil
}

// seqInsns returns the instructions the functional cores committed.
func (m *Machine) seqInsns() (n int64) {
	for _, c := range m.seqCores {
		n += c.Insns()
	}
	return n
}

// deadlockErr builds the structured error for a machine whose horizon
// is never: a fully halted domain with no timer or DMA deadline that
// could wake it, or cores that are awake with nothing scheduled, no
// deadline, no watchdog and no run bound (stepping such a machine cycle
// by cycle would spin forever).
func (m *Machine) deadlockErr(halted bool) error {
	ctx := m.Dom.VCPUs[0]
	se := &simerr.SimError{
		Kind:    simerr.KindDeadlock,
		Cycle:   m.Cycle,
		VCPU:    int(ctx.ID),
		RIP:     ctx.RIP,
		Message: "domain deadlocked: all VCPUs halted, no pending timers",
	}
	if !halted {
		se.Message = "domain deadlocked: no core has anything scheduled, no pending timers"
	}
	if m.mode == ModeSim {
		var dump strings.Builder
		for _, c := range m.oooCores {
			dump.WriteString(c.DumpState())
			se.LastRIPs = append(se.LastRIPs, c.RecentCommits()...)
		}
		se.Dump = dump.String()
	}
	se.EventTail = m.eventTail()
	return se
}

// stepSim advances the cycle accurate model to the next cycle in which
// something can happen and runs that cycle on all cores in round-robin
// order, as §2.2 describes. The jump (horizon, skipTo) comes first, so
// that whatever touched the machine since the last step — its hook, a
// guest command, a caller — is seen before time moves.
func (m *Machine) stepSim(bound uint64) error {
	h, halted := m.horizon(bound)
	if h == never {
		return m.deadlockErr(halted)
	}
	if h > m.Cycle {
		if err := m.skipTo(h, halted); err != nil || halted || m.Cycle >= bound {
			return err
		}
	}
	for _, c := range m.oooCores {
		if err := c.Cycle(m.Cycle); err != nil {
			return err
		}
	}
	m.Stepped++
	m.rounds++
	m.accountCycle(1)
	m.Cycle++
	m.settle(1)
	return nil
}

// Step advances the machine by one unit in the current mode: a
// scheduling quantum in native mode; in simulation mode one cycle of
// every core, preceded by all the cycles in which no core could have
// done anything (a stall on a cache miss, or the whole domain asleep
// until a timer), which are accounted for in bulk. Simulated time,
// statistics and events are those of stepping every cycle; only the
// number of Step calls, hence of step-hook calls, per cycle differs.
func (m *Machine) Step() error { return m.step(never) }

// step is Step for a run loop that stops at cycle bound: no jump over a
// stalled span goes past it.
func (m *Machine) step(bound uint64) error {
	var err error
	if m.mode == ModeNative {
		err = m.stepNative(bound)
	} else {
		err = m.stepSim(bound)
	}
	if err == nil && m.stepHook != nil {
		m.stepHook(m)
	}
	return err
}

// guard converts an internal invariant panic into a structured
// SimError annotated with the execution context (cycle, RIP, recently
// committed instructions) so a sick run produces a failure report
// instead of taking down the process. It must be the first defer in
// each Run* entry point so cleanup defers registered later still run
// during the unwind.
func (m *Machine) guard(err *error) {
	r := recover()
	if r == nil {
		return
	}
	ctx := m.Dom.VCPUs[0]
	se := &simerr.SimError{
		Kind:    simerr.KindPanic,
		Cycle:   m.Cycle,
		VCPU:    int(ctx.ID),
		RIP:     ctx.RIP,
		Message: fmt.Sprintf("internal invariant violated: %v", r),
		Dump:    string(debug.Stack()),
	}
	for _, c := range m.oooCores {
		se.LastRIPs = append(se.LastRIPs, c.RecentCommits()...)
	}
	se.EventTail = m.eventTail()
	*err = se
}

// ctxCheckInterval is how many rounds (see Machine.rounds) pass between
// context cancellation checks in the run loops: few enough that a
// SIGINT interrupts within microseconds of wall time, enough to keep
// Err() polling off the per-cycle hot path. A native step ends at a
// multiple of it, and the loops poll at each multiple.
const ctxCheckInterval = 4096

// interruptErr wraps a context cancellation with the machine position
// so callers can both classify it (errors.Is(err, context.Canceled))
// and report where the run stopped. The machine is at an instruction
// boundary, so capturing a final checkpoint is legal.
func (m *Machine) interruptErr(cause error) error {
	return fmt.Errorf("core: run interrupted at cycle %d (%d insns): %w", m.Cycle, m.Insns(), cause)
}

// RunUntilInsns advances the machine until exactly target instructions
// have committed in total (or the domain shuts down). In native mode
// the functional core single-steps near the boundary; in simulation
// mode the commit stage is gated, so both engines pause at a precise
// instruction boundary — the property native↔sim switching and the
// divergence search rely on.
func (m *Machine) RunUntilInsns(target int64, maxCycles uint64) (err error) {
	return m.RunUntilInsnsCtx(context.Background(), target, maxCycles)
}

// RunUntilInsnsCtx is RunUntilInsns with cooperative cancellation: when
// ctx is cancelled the loop returns a wrapped ctx.Err() at the next
// instruction boundary.
func (m *Machine) RunUntilInsnsCtx(ctx context.Context, target int64, maxCycles uint64) (err error) {
	defer m.guard(&err)
	if m.mode == ModeSim {
		// The commit gate compares against each core's own committed
		// count, which on a checkpoint-restored machine is smaller than
		// the machine total (earlier commits may live in the other
		// engine's counters) — so express the limit per core.
		delta := target - m.Insns()
		for _, c := range m.oooCores {
			c.SetCommitLimit(c.Insns() + delta)
		}
		defer func() {
			for _, c := range m.oooCores {
				c.SetCommitLimit(0)
			}
		}()
	} else {
		for _, c := range m.seqCores {
			c.MaxInsnsPerStep = 1
		}
		defer func() {
			for _, c := range m.seqCores {
				c.MaxInsnsPerStep = 0
			}
		}()
	}
	start := m.Cycle
	bound := uint64(never)
	if maxCycles > 0 {
		bound = start + maxCycles
	}
	poll := m.rounds
	for m.Insns() < target && !m.Dom.ShutdownReq {
		if m.rounds >= poll {
			poll = m.rounds - m.rounds%ctxCheckInterval + ctxCheckInterval
			if cerr := ctx.Err(); cerr != nil {
				return m.interruptErr(cerr)
			}
		}
		if maxCycles > 0 && m.Cycle-start >= maxCycles {
			return m.BudgetErr(fmt.Sprintf(
				"RunUntilInsns(%d): cycle budget %d exhausted at %d insns", target, maxCycles, m.Insns()))
		}
		if err := m.step(bound); err != nil {
			return err
		}
		m.processCommands()
	}
	return nil
}

// RunUntilRIP runs in native mode, single stepping, until VCPU 0
// reaches the trigger RIP (the paper's RIP trigger points, §2.3).
func (m *Machine) RunUntilRIP(rip uint64, maxInsns int64) (err error) {
	defer m.guard(&err)
	if m.mode != ModeNative {
		return fmt.Errorf("core: RIP triggers require native mode")
	}
	m.seqCores[0].MaxInsnsPerStep = 1
	defer func() { m.seqCores[0].MaxInsnsPerStep = 0 }()
	start := m.Insns()
	for m.Dom.VCPUs[0].RIP != rip && !m.Dom.ShutdownReq {
		if maxInsns > 0 && m.Insns()-start >= maxInsns {
			return fmt.Errorf("core: trigger rip %#x not reached within %d insns", rip, maxInsns)
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Run executes until the domain shuts down or maxCycles elapses
// (0 = unlimited), honoring ptlcall command lists submitted from
// inside the guest. Internal invariant panics are converted into
// structured SimErrors by the guard boundary.
func (m *Machine) Run(maxCycles uint64) (err error) {
	return m.RunCtx(context.Background(), maxCycles)
}

// RunCtx is Run with cooperative cancellation: when ctx is cancelled
// the loop stops at the next instruction boundary and returns a
// wrapped ctx.Err(), leaving the machine checkpointable — the hook
// SIGINT/SIGTERM handling uses to turn a kill into a final checkpoint
// and clean exit.
func (m *Machine) RunCtx(ctx context.Context, maxCycles uint64) (err error) {
	defer m.guard(&err)
	bound := uint64(never)
	if maxCycles > 0 {
		bound = maxCycles
	}
	poll := m.rounds
	for !m.Dom.ShutdownReq {
		if m.rounds >= poll {
			poll = m.rounds - m.rounds%ctxCheckInterval + ctxCheckInterval
			if cerr := ctx.Err(); cerr != nil {
				return m.interruptErr(cerr)
			}
		}
		if maxCycles > 0 && m.Cycle >= maxCycles {
			return m.BudgetErr(fmt.Sprintf("cycle budget %d exhausted", maxCycles))
		}
		if err := m.step(bound); err != nil {
			return err
		}
		m.postStep()
	}
	if m.collector != nil {
		m.collector.Tick(m.Cycle)
	}
	return nil
}

// RunUntilCycle advances until the shared clock reaches target or the
// domain shuts down. While any VCPU is awake it returns at exactly
// target in simulation mode (a jump over a stall ends there), and a
// native-mode step that runs a basic block across target overshoots by
// the rest of that block; when the whole domain is asleep it returns at
// the next timer deadline, which may lie far past target (horizon's
// comment has the reason). Checkpoint intervals are measured from where
// it landed.
func (m *Machine) RunUntilCycle(target uint64) (err error) {
	return m.RunUntilCycleCtx(context.Background(), target)
}

// RunUntilCycleCtx is RunUntilCycle with cooperative cancellation.
func (m *Machine) RunUntilCycleCtx(ctx context.Context, target uint64) (err error) {
	defer m.guard(&err)
	poll := m.rounds
	for m.Cycle < target && !m.Dom.ShutdownReq {
		if m.rounds >= poll {
			poll = m.rounds - m.rounds%ctxCheckInterval + ctxCheckInterval
			if cerr := ctx.Err(); cerr != nil {
				return m.interruptErr(cerr)
			}
		}
		if err := m.step(target); err != nil {
			return err
		}
		m.postStep()
	}
	return nil
}

// postStep drains guest commands and applies phase boundaries after a
// successful Step.
func (m *Machine) postStep() {
	m.processCommands()
	if m.stopInsns >= 0 && m.Insns()-m.baseInsns >= m.stopInsns {
		m.stopInsns = -1
		m.nextPhase()
	}
}

// BudgetErr builds the structured error for an exhausted cycle budget
// (exported for the run loops layered on Machine: checkpointing,
// sampling).
func (m *Machine) BudgetErr(msg string) error {
	ctx := m.Dom.VCPUs[0]
	return &simerr.SimError{
		Kind:    simerr.KindCycleBudget,
		Cycle:   m.Cycle,
		VCPU:    int(ctx.ID),
		RIP:     ctx.RIP,
		Message: msg,
	}
}

// Series returns the collected time-lapse statistics series.
func (m *Machine) Series() stats.Series {
	if m.collector == nil {
		return stats.Series{}
	}
	return m.collector.Finish(m.Cycle)
}

// processCommands drains ptlcall command lists into phases.
func (m *Machine) processCommands() {
	for _, cmd := range m.Dom.TakeCommands() {
		m.phases = append(m.phases, parseCommandList(cmd)...)
		// Not currently in a bounded phase: act on the new command now.
		if m.stopInsns < 0 {
			m.nextPhase()
		}
	}
}

// nextPhase applies the next queued phase.
func (m *Machine) nextPhase() {
	if len(m.phases) == 0 {
		return
	}
	ph := m.phases[0]
	m.phases = m.phases[1:]
	if ph.kill {
		m.Dom.ShutdownReq = true
		return
	}
	m.SwitchMode(ph.mode)
	if ph.stopInsns > 0 {
		m.stopInsns = ph.stopInsns
		m.baseInsns = m.Insns()
	} else {
		m.stopInsns = -1
	}
}

// PhaseSpec is the exported form of a queued ptlcall phase, letting a
// checkpoint carry pending command-list state across a restore.
type PhaseSpec struct {
	Sim       bool
	StopInsns int64
	Kill      bool
}

// ControlState exports command/phase progress for checkpointing.
func (m *Machine) ControlState() (phases []PhaseSpec, stopInsns, baseInsns int64) {
	for _, ph := range m.phases {
		phases = append(phases, PhaseSpec{Sim: ph.mode == ModeSim, StopInsns: ph.stopInsns, Kill: ph.kill})
	}
	return phases, m.stopInsns, m.baseInsns
}

// SetControlState restores command/phase progress captured by
// ControlState.
func (m *Machine) SetControlState(phases []PhaseSpec, stopInsns, baseInsns int64) {
	m.phases = nil
	for _, ps := range phases {
		ph := phase{mode: ModeNative, stopInsns: ps.StopInsns, kill: ps.Kill}
		if ps.Sim {
			ph.mode = ModeSim
		}
		m.phases = append(m.phases, ph)
	}
	m.stopInsns = stopInsns
	m.baseInsns = baseInsns
}

// RestoreMode sets the execution mode without counting a mode switch
// or flushing pipelines. Checkpoint restore only: the freshly built
// cores are already cold, and the mode-switch counter is restored
// separately with the rest of the stats tree.
func (m *Machine) RestoreMode(mode Mode) { m.mode = mode }

// parseCommandList parses a PTLsim command list like
// "-run -stopinsns 10m : -native" into phases (paper §4.1).
func parseCommandList(s string) []phase {
	var out []phase
	for _, part := range strings.Split(s, ":") {
		fields := strings.Fields(part)
		if len(fields) == 0 {
			continue
		}
		ph := phase{mode: ModeSim, stopInsns: -1}
		for i := 0; i < len(fields); i++ {
			switch fields[i] {
			case "-run", "-switch":
				ph.mode = ModeSim
			case "-native":
				ph.mode = ModeNative
			case "-kill":
				ph.kill = true
			case "-stopinsns":
				if i+1 < len(fields) {
					i++
					ph.stopInsns = parseCount(fields[i])
				}
			}
		}
		out = append(out, ph)
	}
	return out
}

// parseCount parses "10m", "1k", "2g" style counts.
func parseCount(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1_000, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mult, s = 1_000_000, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "g"):
		mult, s = 1_000_000_000, strings.TrimSuffix(s, "g")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return -1
	}
	return n * mult
}
