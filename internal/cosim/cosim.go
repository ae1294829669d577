// Package cosim implements PTLsim's native-mode co-simulation features
// (paper §2.3): trigger points for starting cycle accurate simulation
// at interesting program locations, statistical sampled simulation
// (simulate K instructions out of every M, spending the rest in fast
// native mode), and the self-debugging divergence search that isolates
// — by binary search over instruction counts — the first instruction
// at which the cycle accurate core's architectural state departs from
// the reference engine.
package cosim

import (
	"fmt"

	"ptlsim/internal/core"
	"ptlsim/internal/hv"
	"ptlsim/internal/snapshot"
	"ptlsim/internal/stats"
	"ptlsim/internal/vm"
)

// SampleConfig describes statistical sampled simulation: simulate
// SimInsns out of every SimInsns+NativeInsns instructions.
type SampleConfig struct {
	SimInsns    int64
	NativeInsns int64
}

// RunSampled drives the machine to completion, alternating between the
// cycle accurate core and native mode at instruction boundaries.
// maxCycles bounds the whole run in absolute cycles (0 = unlimited).
func RunSampled(m *core.Machine, cfg SampleConfig, maxCycles uint64) error {
	if cfg.SimInsns <= 0 || cfg.NativeInsns <= 0 {
		return fmt.Errorf("cosim: sample periods must be positive")
	}
	// period runs one sampling period under what is left of the budget:
	// RunUntilInsns takes a budget relative to where it starts.
	period := func(mode core.Mode, insns int64) error {
		var left uint64
		if maxCycles > 0 {
			if m.Cycle >= maxCycles {
				return m.BudgetErr(fmt.Sprintf("cycle budget %d exhausted during sampling", maxCycles))
			}
			left = maxCycles - m.Cycle
		}
		m.SwitchMode(mode)
		return m.RunUntilInsns(m.Insns()+insns, left)
	}
	for !m.Dom.ShutdownReq {
		if err := period(core.ModeSim, cfg.SimInsns); err != nil {
			return err
		}
		if m.Dom.ShutdownReq {
			break
		}
		if err := period(core.ModeNative, cfg.NativeInsns); err != nil {
			return err
		}
	}
	return nil
}

// DomainBuilder deterministically constructs a fresh copy of the guest
// under test. Deterministic reconstruction is what lets the divergence
// search re-run from the start instead of checkpointing (the paper
// isolates the domain from non-deterministic outside events for the
// same reason).
type DomainBuilder func() (*hv.Domain, error)

// Probe runs to instruction boundary n and reports whether the two
// engines agree there; diag carries a human-readable difference.
type Probe func(n int64) (equal bool, diag string, err error)

// EngineState is what one engine exposes at a stop point, on every
// dimension a divergence is observable in. Ctx is nil when the caller
// has no architectural state worth comparing (the guest exited).
type EngineState struct {
	Insns   int64
	Console string
	Ctx     *vm.Context
}

// Observe records m's current state; the copy stays valid if m keeps
// running.
func Observe(m *core.Machine) EngineState {
	return EngineState{Insns: m.Insns(), Console: m.Dom.Console(), Ctx: m.Dom.VCPUs[0].Clone()}
}

// CompareEngines is the one definition of "two engines agree": same
// stop instruction count, console bytes and architectural state; diag
// describes the first difference. When the guest shuts down inside a
// window, both engines coast to post-shutdown idle contexts that can
// compare architecturally equal even though their trajectories
// differed — the stop count and console are what still tell them apart.
func CompareEngines(ref, sim EngineState) (equal bool, diag string) {
	if ref.Insns != sim.Insns {
		return false, fmt.Sprintf("engines stopped at different instruction counts: ref %d, sim %d",
			ref.Insns, sim.Insns)
	}
	if ref.Console != sim.Console {
		return false, fmt.Sprintf("console output differs at instruction %d (ref %d bytes, sim %d bytes)",
			ref.Insns, len(ref.Console), len(sim.Console))
	}
	if ref.Ctx != nil && sim.Ctx != nil && !vm.ArchEqual(ref.Ctx, sim.Ctx) {
		return false, fmt.Sprintf("architectural state differs at instruction %d: %s",
			ref.Insns, vm.DiffArch(ref.Ctx, sim.Ctx))
	}
	return true, ""
}

// MakeArchProbe builds a Probe comparing the functional engine against
// the cycle accurate core configured by simCfg. The guest must be free
// of timing-dependent event delivery (no timers), or instruction
// trajectories legitimately differ.
func MakeArchProbe(build DomainBuilder, simCfg core.Config) Probe {
	runTo := func(mode core.Mode, n int64) (EngineState, error) {
		dom, err := build()
		if err != nil {
			return EngineState{}, err
		}
		m := core.NewMachine(dom, stats.NewTree(), simCfg)
		m.SwitchMode(mode)
		if err := m.RunUntilInsns(n, 0); err != nil {
			return EngineState{}, err
		}
		return Observe(m), nil
	}
	return func(n int64) (bool, string, error) {
		ref, err := runTo(core.ModeNative, n)
		if err != nil {
			return false, "", fmt.Errorf("cosim: reference run: %w", err)
		}
		sim, err := runTo(core.ModeSim, n)
		if err != nil {
			return false, "", fmt.Errorf("cosim: sim run: %w", err)
		}
		eq, diag := CompareEngines(ref, sim)
		return eq, diag, nil
	}
}

// ReplayStats accounts the instructions a divergence search replayed,
// quantifying the speedup checkpoints buy over restart-from-zero
// probing.
type ReplayStats struct {
	// ScanInsns is what the lockstep interval scan executed on the
	// simulated engine.
	ScanInsns int64
	// ProbeInsns is what the bisection probes executed (both engines,
	// resumed from the nearest checkpoint).
	ProbeInsns int64
	// NaiveInsns is what the same probe sequence would have executed
	// had each probe restarted both engines from instruction zero.
	NaiveInsns int64
	// Probes is the number of bisection probes issued.
	Probes int
}

// FirstDivergenceCheckpointed isolates the first diverging instruction
// like FirstDivergence, but accelerates the search with checkpoints:
// the reference (native) engine runs once to max, capturing an encoded
// machine image every interval instructions; a lockstep scan runs the
// simulated engine between boundaries to find the first bad interval;
// bisection then resumes both engines from the checkpoint preceding
// that interval instead of replaying from instruction zero. instrument
// (optional) is applied to every simulated-engine machine — e.g. a
// faultinject.Injector.Attach — so injected faults survive the
// restore-based probing. Returns -1 if the engines agree up to max.
func FirstDivergenceCheckpointed(build DomainBuilder, simCfg core.Config, max, interval int64,
	instrument func(*core.Machine)) (int64, string, ReplayStats, error) {
	if max <= 0 || interval <= 0 {
		return 0, "", ReplayStats{}, fmt.Errorf("cosim: max and interval must be positive")
	}
	dom, err := build()
	if err != nil {
		return 0, "", ReplayStats{}, err
	}
	ref := core.NewMachine(dom, stats.NewTree(), simCfg)
	return firstDivergenceFrom(ref, simCfg, max, interval, instrument)
}

// FirstDivergenceFromImage runs the same checkpointed divergence search
// seeded from a restored machine image instead of a deterministic
// domain rebuild — the supervisor's triage path for oracle-detected
// divergences: the nearest rotated checkpoint slot becomes the search
// origin, so only the window between that slot and the failure is
// replayed. Restoring (rather than rebuilding) preserves the absolute
// instruction and cycle counters, so instrumentation with absolute
// triggers (fault injection windows) reproduces the original
// trajectory. max is the absolute committed-instruction bound to
// search up to; the image must precede it.
func FirstDivergenceFromImage(img *snapshot.Image, simCfg core.Config, max, interval int64,
	instrument func(*core.Machine)) (int64, string, ReplayStats, error) {
	ref, err := snapshot.Restore(img, simCfg)
	if err != nil {
		return 0, "", ReplayStats{}, fmt.Errorf("cosim: seed restore: %w", err)
	}
	ref.SwitchMode(core.ModeNative)
	return firstDivergenceFrom(ref, simCfg, max, interval, instrument)
}

// firstDivergenceFrom is the shared search engine: ref supplies the
// start state (at its current committed-instruction count) and runs
// the native reference pass; bounds span [ref.Insns(), max].
func firstDivergenceFrom(ref *core.Machine, simCfg core.Config, max, interval int64,
	instrument func(*core.Machine)) (int64, string, ReplayStats, error) {
	var st ReplayStats
	start := ref.Insns()
	if max <= start {
		return 0, "", st, fmt.Errorf("cosim: search bound %d not past start instruction count %d", max, start)
	}
	if interval <= 0 {
		return 0, "", st, fmt.Errorf("cosim: interval must be positive")
	}
	// Boundary instruction counts start, start+interval, ..., max.
	var bounds []int64
	for n := start; n < max; n += interval {
		bounds = append(bounds, n)
	}
	bounds = append(bounds, max)

	// Reference run: one native pass, checkpointing at every boundary.
	// Images go through encoded bytes so probes exercise the same
	// restore path an on-disk checkpoint would.
	images := make([][]byte, len(bounds))
	refState := make([]EngineState, len(bounds))
	for k, n := range bounds {
		if err := ref.RunUntilInsns(n, 0); err != nil {
			return 0, "", st, fmt.Errorf("cosim: reference run: %w", err)
		}
		img, err := snapshot.Capture(ref).Encode()
		if err != nil {
			return 0, "", st, err
		}
		images[k] = img
		refState[k] = Observe(ref)
	}

	restoreFrom := func(k int, mode core.Mode) (*core.Machine, error) {
		img, err := snapshot.Decode(images[k])
		if err != nil {
			return nil, err
		}
		m, err := snapshot.Restore(img, simCfg)
		if err != nil {
			return nil, err
		}
		m.SwitchMode(mode)
		if mode == core.ModeSim && instrument != nil {
			instrument(m)
		}
		return m, nil
	}

	// Lockstep scan: run the simulated engine boundary to boundary,
	// comparing against the reference at each. The check at boundary 0
	// catches divergence already present at the search origin —
	// instrumentation that corrupts state at attach time diverges
	// before the first simulated instruction, and a result equal to
	// start (instruction 0 for a fresh build) reports exactly that
	// instead of misattributing it to start+1.
	simM, err := restoreFrom(0, core.ModeSim)
	if err != nil {
		return 0, "", st, err
	}
	if eq, diag := CompareEngines(refState[0], Observe(simM)); !eq {
		return bounds[0], diag, st, nil
	}
	badK := -1
	var diag string
	for k := 1; k < len(bounds); k++ {
		if err := simM.RunUntilInsns(bounds[k], 0); err != nil {
			return 0, "", st, fmt.Errorf("cosim: scan run: %w", err)
		}
		st.ScanInsns += bounds[k] - bounds[k-1]
		if eq, d := CompareEngines(refState[k], Observe(simM)); !eq {
			badK = k
			diag = d
			break
		}
	}
	if badK < 0 {
		return -1, "", st, nil
	}

	// Bisect (bounds[badK-1], bounds[badK]], resuming both engines from
	// the checkpoint just before the bad interval.
	base := bounds[badK-1]
	probe := func(n int64) (bool, string, error) {
		st.Probes++
		st.ProbeInsns += 2 * (n - base)
		st.NaiveInsns += 2 * (n - start)
		refP, err := restoreFrom(badK-1, core.ModeNative)
		if err != nil {
			return false, "", err
		}
		if err := refP.RunUntilInsns(n, 0); err != nil {
			return false, "", fmt.Errorf("cosim: reference probe: %w", err)
		}
		simP, err := restoreFrom(badK-1, core.ModeSim)
		if err != nil {
			return false, "", err
		}
		if err := simP.RunUntilInsns(n, 0); err != nil {
			return false, "", fmt.Errorf("cosim: sim probe: %w", err)
		}
		eq, d := CompareEngines(Observe(refP), Observe(simP))
		return eq, d, nil
	}
	// The scan proved divergence at bounds[badK].
	n, diag, err := bisect(base+1, bounds[badK], diag, probe)
	if err != nil {
		return 0, "", st, err
	}
	return n, diag, st, nil
}

// FirstDivergence binary searches [1, max] for the smallest n at which
// probe reports divergence, assuming divergence is persistent once it
// appears (the property the paper's binary-search debugging relies
// on). Returns -1 if the engines agree everywhere up to max.
func FirstDivergence(max int64, probe Probe) (int64, string, error) {
	eq, diag, err := probe(max)
	if err != nil {
		return 0, "", err
	}
	if eq {
		return -1, "", nil
	}
	return bisect(1, max, diag, probe)
}

// bisect returns the smallest n in [lo, hi] at which probe reports
// divergence, and its diagnosis, given that the engines diverge at hi
// (with diagnosis hiDiag) and that divergence persists once it appears.
func bisect(lo, hi int64, hiDiag string, probe Probe) (int64, string, error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		eq, diag, err := probe(mid)
		if err != nil {
			return 0, "", err
		}
		if eq {
			lo = mid + 1
		} else {
			hi, hiDiag = mid, diag
		}
	}
	return hi, hiDiag, nil
}
