// The dual-engine harness: place a generated sequence in a minimal
// timerless guest, run it natively (sequential interpreter) and
// simulated (out-of-order core under the lockstep commit oracle and
// the pipeline invariant auditor), and compare everything observable —
// failure class, committed-instruction count, console bytes, and, when
// both engines stop at an instruction-count boundary, the full
// architectural register file. Any disagreement is a Finding.
package conformance

import (
	"fmt"

	"ptlsim/internal/conformance/corpus"
	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/hv"
	"ptlsim/internal/kern"
	"ptlsim/internal/selfcheck"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/x86"
)

// scratchPages is the writable data mapping every fuzz guest gets; the
// generators keep their addressing inside it (see rng.scratchOff).
const scratchPages = 8

// Config parameterizes case execution.
type Config struct {
	// Sim is the simulated-engine configuration. A zero value gets
	// core.DefaultConfig(); self-checking (oracle + auditor) and a
	// commit-progress watchdog are armed unless already configured —
	// the oracle is the primary mid-run divergence detector.
	Sim core.Config
	// MaxInsns is the per-engine committed-instruction budget
	// (default 4000). Sequences that run away (byte-level mutants with
	// backward jumps) are stopped at this boundary in both engines and
	// compared there, which keeps them useful instead of discarding
	// them.
	MaxInsns int64
	// TimingSeeds runs extra simulated passes with the branch
	// predictor state scrambled per seed; the architectural trajectory
	// must be invariant.
	TimingSeeds []int64
	// Instrument is attached to simulated machines before the run
	// (tests inject faults here to prove the pipeline finds them).
	Instrument func(*core.Machine)
}

func (c Config) withDefaults() Config {
	if c.Sim.NativeCPI == 0 && c.Sim.ThreadsPerCore == 0 {
		c.Sim = core.DefaultConfig()
	}
	if !c.Sim.SelfCheck.Enabled() {
		c.Sim.SelfCheck = selfcheck.Config{Oracle: true, Interval: 32, Audit: true, AuditEvery: 256}
	}
	if c.Sim.WatchdogCycles == 0 {
		// A simulated sequence that stops committing (bad speculation
		// loop, stalled queue) should fail fast as a livelock finding
		// instead of grinding to the cycle budget.
		c.Sim.WatchdogCycles = 20000
	}
	if c.MaxInsns <= 0 {
		c.MaxInsns = 4000
	}
	return c
}

// Finding is one observed disagreement between the engines (or a
// self-check failure inside the simulated engine).
type Finding struct {
	// Kind is the simerr kind when the simulated engine failed
	// structurally ("divergence", "invariant", "panic", ...), or
	// "mismatch" when both engines completed but disagreed on
	// outcome, console output, or final architectural state.
	Kind string
	// Diag is the human-readable diagnosis.
	Diag string
	// Commit is the committed-instruction index at detection when the
	// failure carried one (oracle and auditor failures do).
	Commit int64
	// TimingSeed is the predictor scramble under which the finding
	// appeared (0 = the baseline pass).
	TimingSeed int64
	// NativeInsns is the reference engine's committed-instruction
	// count for the case — the localization search bound.
	NativeInsns int64
	// DivergedAt is the first diverging instruction found by the
	// checkpointed search (-1 = not localized).
	DivergedAt int64
}

func (f *Finding) String() string {
	return fmt.Sprintf("%s: %s", f.Kind, f.Diag)
}

// KindMismatch labels findings where both engines ran to completion
// but disagreed (as opposed to a structured simerr kind).
const KindMismatch = "mismatch"

// BuildProgram assembles the guest user program for a case: a prologue
// seeding every general register (and the flags) from the case seed —
// RSI/RDI point into the scratch data area near page boundaries, RCX
// stays small so stray REP prefixes in byte-level units terminate —
// then the unit bytes, then an exit epilogue. The same (units, seed)
// pair reproduces the same program forever.
func BuildProgram(units [][]byte, seed int64) ([]byte, error) {
	r := newRNG(seed ^ 0x5EED)
	a := x86.NewAssembler(kern.UserTextVA)
	for _, reg := range destRegs {
		v := r.next()
		if reg == x86.RCX {
			v &= 31
		}
		a.Mov(x86.R(reg), x86.I(int64(v)))
	}
	a.Mov(x86.R(x86.RSI), x86.I(int64(kern.UserDataVA)+r.scratchOff()))
	a.Mov(x86.R(x86.RDI), x86.I(int64(kern.UserDataVA)+r.scratchOff()))
	a.Cmp(x86.R(x86.RBX), x86.I(int64(int32(r.next()))))
	for _, u := range units {
		a.Raw(u...)
	}
	a.Xor(x86.R(x86.RAX), x86.R(x86.RAX)) // SysExit
	a.Syscall()
	return a.Bytes()
}

// DomainBuilder wraps a program into the minimal fuzz guest: one
// process, scratch data pages, no timer — timer interrupts would
// deliver at different instruction boundaries in the two engines and
// legitimately fork the trajectories.
func DomainBuilder(code []byte) cosim.DomainBuilder {
	return func() (*hv.Domain, error) {
		img, err := kern.Build(kern.BuildSpec{
			Procs: []kern.ProcSpec{{Name: "fuzz", Code: code, DataPages: scratchPages}},
			Tree:  stats.NewTree(),
		})
		if err != nil {
			return nil, err
		}
		return img.Domain, nil
	}
}

// outcome is everything observable about one engine's run of a case.
// Ctx (the final VCPU state) is set for boundary stops only.
type outcome struct {
	class string // "exit", "boundary", or a simerr kind
	cosim.EngineState
	simErr *simerr.SimError
}

const (
	classExit     = "exit"     // guest shut down on its own
	classBoundary = "boundary" // stopped at the instruction budget
)

// runEngine executes code under one engine and classifies the result.
// Only non-simerr errors (infrastructure problems) are returned as
// errors; structured failures become outcome classes.
func (c Config) runEngine(code []byte, mode core.Mode, timingSeed int64) (outcome, error) {
	dom, err := DomainBuilder(code)()
	if err != nil {
		return outcome{}, err
	}
	mcfg := c.Sim
	var budget uint64
	if mode == core.ModeNative {
		// The reference interpreter needs no self-checking and runs at
		// NativeCPI, so its budget is tight.
		mcfg.SelfCheck = selfcheck.Config{}
		mcfg.TimingSeed = 0
		mcfg.WatchdogCycles = 0
		budget = uint64(c.MaxInsns)*4 + 100_000
	} else {
		mcfg.TimingSeed = timingSeed
		budget = uint64(c.MaxInsns)*256 + 1_000_000
	}
	m := core.NewMachine(dom, stats.NewTree(), mcfg)
	m.SwitchMode(mode)
	if mode == core.ModeSim && c.Instrument != nil {
		c.Instrument(m)
	}
	rerr := m.RunUntilInsns(c.MaxInsns, budget)
	o := outcome{EngineState: cosim.EngineState{Insns: m.Insns(), Console: m.Dom.Console()}}
	switch {
	case rerr == nil && m.Dom.ShutdownReq:
		o.class = classExit
	case rerr == nil:
		o.class = classBoundary
		o.Ctx = m.Dom.VCPUs[0]
	default:
		se, ok := simerr.As(rerr)
		if !ok {
			return outcome{}, rerr
		}
		o.class = string(se.Kind)
		o.simErr = se
	}
	return o, nil
}

// selfCheckKinds are simulated-engine failures that are findings in
// themselves, regardless of what the reference engine did.
func selfCheckFinding(k simerr.Kind) bool {
	return k == simerr.KindDivergence || k == simerr.KindInvariant || k == simerr.KindPanic
}

// compare turns a (reference, simulated) outcome pair into a Finding,
// or nil when the engines agree.
func compare(nat, sim outcome, timingSeed int64) *Finding {
	mk := func(kind, diag string) *Finding {
		f := &Finding{Kind: kind, Diag: diag, TimingSeed: timingSeed,
			NativeInsns: nat.Insns, DivergedAt: -1}
		if sim.simErr != nil {
			f.Commit = sim.simErr.Commit
		}
		return f
	}
	if sim.simErr != nil && selfCheckFinding(sim.simErr.Kind) {
		return mk(string(sim.simErr.Kind), sim.simErr.Detail())
	}
	if nat.class != sim.class {
		return mk(KindMismatch, fmt.Sprintf(
			"outcome class differs: native %s at %d insns, sim %s at %d insns",
			nat.class, nat.Insns, sim.class, sim.Insns))
	}
	switch nat.class {
	case classExit, classBoundary, string(simerr.KindDeadlock):
		if eq, diag := cosim.CompareEngines(nat.EngineState, sim.EngineState); !eq {
			return mk(KindMismatch, nat.class+": "+diag)
		}
	default:
		// Same structured failure in both engines (e.g. both hit the
		// cycle budget): cycle budgets are engine-relative, so counts
		// are not comparable — agreement on the class is the check.
	}
	return nil
}

// RunCase executes one case through both engines (plus one simulated
// pass per timing seed) and returns the first Finding, or nil when
// every pass agrees with the reference.
func (c Config) RunCase(units [][]byte, seed int64) (*Finding, error) {
	cfg := c.withDefaults()
	code, err := BuildProgram(units, seed)
	if err != nil {
		return nil, fmt.Errorf("conformance: assemble: %w", err)
	}
	nat, err := cfg.runEngine(code, core.ModeNative, 0)
	if err != nil {
		return nil, fmt.Errorf("conformance: reference run: %w", err)
	}
	seeds := append([]int64{0}, cfg.TimingSeeds...)
	for _, ts := range seeds {
		sim, err := cfg.runEngine(code, core.ModeSim, ts)
		if err != nil {
			return nil, fmt.Errorf("conformance: sim run (timing seed %d): %w", ts, err)
		}
		if f := compare(nat, sim, ts); f != nil {
			return f, nil
		}
	}
	return nil, nil
}

// Replay re-executes a promoted corpus case and returns its finding
// (nil once the underlying bug is fixed — the regression test asserts
// exactly that).
func (c Config) Replay(cs corpus.Case) (*Finding, error) {
	units, err := cs.Units()
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		code, err := cs.Code()
		if err != nil {
			return nil, err
		}
		units = SplitUnits(code)
	}
	return c.RunCase(units, cs.Seed)
}
