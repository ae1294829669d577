package cosim

import (
	"fmt"
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/guest"
	"ptlsim/internal/hv"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

// timerlessBench builds a deterministic, timer-free rsync domain.
func timerlessBench(t *testing.T) DomainBuilder {
	t.Helper()
	cs := guest.CorpusSpec{NFiles: 1, FileSize: 1024, Seed: 5, ChangeFraction: 0.4}
	return func() (*hv.Domain, error) {
		spec, err := guest.RsyncBenchmark(cs, 4_000_000_000)
		if err != nil {
			return nil, err
		}
		spec.Tree = stats.NewTree()
		img, err := kern.Build(spec)
		if err != nil {
			return nil, err
		}
		return img.Domain, nil
	}
}

func TestArchProbeAgrees(t *testing.T) {
	probe := MakeArchProbe(timerlessBench(t), core.DefaultConfig())
	for _, n := range []int64{50, 500, 5000} {
		eq, diag, err := probe(n)
		if err != nil {
			t.Fatalf("probe(%d): %v", n, err)
		}
		if !eq {
			t.Fatalf("engines diverged at %d insns: %s", n, diag)
		}
	}
}

func TestNoDivergenceOnHealthyCore(t *testing.T) {
	probe := MakeArchProbe(timerlessBench(t), core.DefaultConfig())
	n, _, err := FirstDivergence(3000, probe)
	if err != nil {
		t.Fatal(err)
	}
	if n != -1 {
		t.Fatalf("healthy core reported divergence at insn %d", n)
	}
}

func TestFirstDivergenceBinarySearch(t *testing.T) {
	// Synthetic probe diverging from instruction 37 onward; the search
	// must find exactly 37 with O(log n) probes.
	probes := 0
	probe := func(n int64) (bool, string, error) {
		probes++
		return n < 37, fmt.Sprintf("diverged at %d", n), nil
	}
	n, diag, err := FirstDivergence(100000, probe)
	if err != nil {
		t.Fatal(err)
	}
	if n != 37 {
		t.Fatalf("found %d, want 37", n)
	}
	if !strings.Contains(diag, "diverged") {
		t.Fatalf("diag = %q", diag)
	}
	if probes > 25 {
		t.Fatalf("binary search used %d probes", probes)
	}
}

func TestFirstDivergenceAtOne(t *testing.T) {
	probe := func(n int64) (bool, string, error) { return false, "always", nil }
	n, _, err := FirstDivergence(1000, probe)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestRunUntilInsnsExactBoundaries(t *testing.T) {
	build := timerlessBench(t)
	for _, mode := range []core.Mode{core.ModeNative, core.ModeSim} {
		dom, err := build()
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewMachine(dom, stats.NewTree(), core.DefaultConfig())
		m.SwitchMode(mode)
		for _, target := range []int64{10, 123, 1000} {
			if err := m.RunUntilInsns(target, 0); err != nil {
				t.Fatal(err)
			}
			if got := m.Insns(); got != target {
				t.Fatalf("mode %v: stopped at %d insns, want exactly %d", mode, got, target)
			}
		}
	}
}

func TestSampledRunCompletes(t *testing.T) {
	dom, err := timerlessBench(t)()
	if err != nil {
		t.Fatal(err)
	}
	tree := stats.NewTree()
	m := core.NewMachine(dom, tree, core.DefaultConfig())
	// The guest shuts down at about cycle 2·10^10 (see TestRIPTrigger);
	// the budget turns an engine that never gets there into a failure.
	if err := RunSampled(m, SampleConfig{SimInsns: 2000, NativeInsns: 8000}, 50_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dom.Console(), "rsync ok") {
		t.Fatalf("console: %q", dom.Console())
	}
	// Both engines must have contributed.
	simI := tree.Lookup("core0.commit.insns").Value()
	natI := tree.Lookup("seq0.insns").Value()
	if simI == 0 || natI == 0 {
		t.Fatalf("sampling split: sim=%d native=%d", simI, natI)
	}
	if tree.Lookup("external.mode_switches").Value() < 2 {
		t.Fatal("expected multiple mode switches")
	}
}

func TestRIPTrigger(t *testing.T) {
	dom, err := timerlessBench(t)()
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(dom, stats.NewTree(), core.DefaultConfig())
	// Trigger at the kernel syscall entry: reached as soon as the
	// first process issues a syscall.
	img, _ := kern.AssembleKernel(4_000_000_000)
	if err := m.RunUntilRIP(img.SysEntry, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if dom.VCPUs[0].RIP != img.SysEntry {
		t.Fatalf("stopped at %#x", dom.VCPUs[0].RIP)
	}
	// Seamless continuation in sim mode afterwards. The guest shuts
	// down at about cycle 2·10^10, most of it idle time the machine
	// jumps over; the budget turns an engine that never gets there into
	// a failure, not a hang.
	m.SwitchMode(core.ModeSim)
	if err := m.Run(50_000_000_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dom.Console(), "rsync ok") {
		t.Fatalf("console: %q", dom.Console())
	}
}

// TSC continuity across mode switches: the guest-visible TSC never
// goes backwards and the domain clock is shared by both engines.
func TestTSCContinuityAcrossSwitches(t *testing.T) {
	dom, err := timerlessBench(t)()
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(dom, stats.NewTree(), core.Config{Core: ooo.DefaultConfig(), NativeCPI: 1, ThreadsPerCore: 1})
	last := uint64(0)
	for i := 0; i < 6 && !dom.ShutdownReq; i++ {
		mode := core.ModeNative
		if i%2 == 1 {
			mode = core.ModeSim
		}
		m.SwitchMode(mode)
		if err := m.RunUntilInsns(m.Insns()+3000, 0); err != nil {
			t.Fatal(err)
		}
		tsc := dom.ReadTSC(dom.VCPUs[0])
		if tsc < last {
			t.Fatalf("TSC went backwards across switch: %d -> %d", last, tsc)
		}
		last = tsc
	}
}
