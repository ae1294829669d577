package cosim

import (
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/hv"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// TestCompareEngines pins the one definition of "two engines agree" on
// each dimension it checks, in the order it checks them.
func TestCompareEngines(t *testing.T) {
	ctx := &vm.Context{RIP: 0x401000}
	ctx.Regs[uops.RegRBX] = 0x2a
	flipped := ctx.Clone()
	flipped.Regs[uops.RegRBX] = 0x2b

	cases := []struct {
		name     string
		ref, sim EngineState
		equal    bool
		diag     string // substring the diagnosis must carry
	}{
		{"equal",
			EngineState{Insns: 100, Console: "ok\n", Ctx: ctx},
			EngineState{Insns: 100, Console: "ok\n", Ctx: ctx.Clone()}, true, ""},
		{"stop count",
			EngineState{Insns: 100, Console: "ok\n", Ctx: ctx},
			EngineState{Insns: 97, Console: "ok\n", Ctx: ctx.Clone()}, false, "instruction counts: ref 100, sim 97"},
		// After a guest shutdown both engines coast to idle contexts
		// that compare equal; only what was printed tells them apart.
		{"console after shutdown",
			EngineState{Insns: 100, Console: "sum 1\n", Ctx: ctx},
			EngineState{Insns: 100, Console: "sum 2\n", Ctx: ctx.Clone()}, false, "console"},
		{"registers",
			EngineState{Insns: 100, Console: "ok\n", Ctx: ctx},
			EngineState{Insns: 100, Console: "ok\n", Ctx: flipped}, false, "0x2a vs 0x2b"},
		{"no architectural state to compare",
			EngineState{Insns: 100, Console: "ok\n"},
			EngineState{Insns: 100, Console: "ok\n", Ctx: flipped}, true, ""},
	}
	for _, tc := range cases {
		eq, diag := CompareEngines(tc.ref, tc.sim)
		if eq != tc.equal || !strings.Contains(diag, tc.diag) || (eq && diag != "") {
			t.Errorf("%s: CompareEngines = (%v, %q), want (%v, ...%q...)", tc.name, eq, diag, tc.equal, tc.diag)
		}
	}
}

// TestArchProbeComparesConsoleAfterShutdown runs the same case through
// a real caller: two guests that differ only in the marker they print —
// same instruction count, registers scrubbed before exit — probed past
// their shutdown. An architectural-state-only comparison calls them
// equal.
func TestArchProbeComparesConsoleAfterShutdown(t *testing.T) {
	guests := []DomainBuilder{scrubbedConsoleGuest(t, 0x5AA5C33C), scrubbedConsoleGuest(t, 0x5AA5C33D)}
	calls := 0
	alternate := func() (*hv.Domain, error) {
		calls++
		return guests[(calls-1)%2]() // reference run gets the first guest, simulated run the second
	}
	eq, diag, err := MakeArchProbe(alternate, core.DefaultConfig())(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if eq || !strings.Contains(diag, "console") {
		t.Fatalf("probe past shutdown = (%v, %q), want a console difference", eq, diag)
	}
}

// TestSampledRunCycleBudget: the budget is absolute over the whole
// sampled run. A budget that expires in the middle of a period must
// stop the run there — not up to a full budget later — with the
// structured cycle-budget error every other run loop returns.
func TestSampledRunCycleBudget(t *testing.T) {
	cfg := SampleConfig{SimInsns: 2000, NativeInsns: 8000}
	boot := func() *core.Machine {
		dom, err := timerlessBench(t)()
		if err != nil {
			t.Fatal(err)
		}
		return core.NewMachine(dom, stats.NewTree(), core.DefaultConfig())
	}
	// The budget is the cycle halfway through the second native period
	// of an unbounded run of the same (deterministic) guest.
	ref := boot()
	for _, leg := range []struct {
		mode  core.Mode
		insns int64
	}{{core.ModeSim, cfg.SimInsns}, {core.ModeNative, cfg.NativeInsns},
		{core.ModeSim, cfg.SimInsns}, {core.ModeNative, cfg.NativeInsns / 2}} {
		ref.SwitchMode(leg.mode)
		if err := ref.RunUntilInsns(ref.Insns()+leg.insns, 0); err != nil {
			t.Fatal(err)
		}
	}
	budget, periodEnd := ref.Cycle, 2*(cfg.SimInsns+cfg.NativeInsns)

	m := boot()
	err := RunSampled(m, cfg, budget)
	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindCycleBudget {
		t.Fatalf("RunSampled past its budget returned %v, want a %s SimError", err, simerr.KindCycleBudget)
	}
	if m.Cycle > budget || se.Cycle > budget || m.Insns() >= periodEnd {
		t.Fatalf("run stopped at cycle %d (error says %d) after %d insns; budget %d expires before insn %d",
			m.Cycle, se.Cycle, m.Insns(), budget, periodEnd)
	}
}
