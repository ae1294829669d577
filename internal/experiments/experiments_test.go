package experiments

import (
	"strings"
	"sync"
	"testing"

	"ptlsim/internal/stats"
)

// testScale is smaller than BenchScale for unit-test latency.
func testScale() Config {
	return Config{
		Corpus:         BenchScale().Corpus,
		TimerPeriod:    220_000,
		SnapshotCycles: 220_000,
		MaxCycles:      4_000_000_000,
	}
}

var (
	sharedRes  *Table1Result
	sharedErr  error
	sharedOnce sync.Once
)

// mustTable1 runs the (expensive) paired trial once and shares the
// result across the test functions.
func mustTable1(t *testing.T) *Table1Result {
	t.Helper()
	sharedOnce.Do(func() { sharedRes, sharedErr = RunTable1(testScale()) })
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedRes
}

func TestTable1Shape(t *testing.T) {
	res := mustTable1(t)
	if !strings.Contains(res.SimConsole, "rsync ok") {
		t.Fatalf("benchmark failed: %q", res.SimConsole)
	}
	row := func(name string) Row {
		for _, r := range res.Rows {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("missing row %q", name)
		return Row{}
	}
	// The paper's shape claims (§5 / Table 1):
	// 1. Architecturally visible counts agree within ~2%.
	insns := row("x86 Insns Committed")
	if d := insns.Diff(); d < -2 || d > 2 {
		t.Errorf("insn count diff %.2f%% exceeds ±2%%", d)
	}
	br := row("Total Branches")
	if d := br.Diff(); d < -3 || d > 3 {
		t.Errorf("branch count diff %.2f%%", d)
	}
	// 2. PTLsim counts individual uops, K8 counts triads: sim >> native.
	uopsRow := row("uops")
	if uopsRow.Sim <= uopsRow.Native {
		t.Errorf("uop counting: sim %.0f should exceed native triads %.0f",
			uopsRow.Sim, uopsRow.Native)
	}
	// 3. The simulated DTLB misses more than the reference's 2-level +
	// PDE-cache hierarchy (paper: +144%). Not for its 32 entries: with
	// 1024 it misses exactly as often on rsync, whose misses follow the
	// flush on every CR3 write (EXPERIMENTS.md, Ablations).
	tlbRow := row("DTLB Misses")
	if tlbRow.Sim <= tlbRow.Native {
		t.Errorf("DTLB: sim %.0f should exceed native %.0f", tlbRow.Sim, tlbRow.Native)
	}
	// 4. Cycle counts within the same order (the paper got +4.3%; our
	// reference is a calibrated counter model, so allow a wide band
	// while still requiring same-magnitude agreement).
	cyc := row("Cycles")
	if d := cyc.Diff(); d < -60 || d > 120 {
		t.Errorf("cycle diff %.2f%% outside plausibility band", d)
	}
	// 5. Both runs executed the same code: consoles match (checked in
	// RunTable1) and L1 access counts are close.
	acc := row("L1 D-cache Accesses")
	if d := acc.Diff(); d < -10 || d > 10 {
		t.Errorf("L1 access diff %.2f%%", d)
	}
}

func TestFigure2ModesPresent(t *testing.T) {
	res := mustTable1(t)
	if res.KernelPct <= 0 || res.UserPct <= 0 {
		t.Fatalf("mode split user=%.1f kernel=%.1f idle=%.1f",
			res.UserPct, res.KernelPct, res.IdlePct)
	}
	sum := res.UserPct + res.KernelPct + res.IdlePct
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("mode percentages sum to %.2f", sum)
	}
	// A client/server pipe workload spends substantial time in the
	// kernel (the paper measured 15% kernel on rsync).
	if res.KernelPct < 5 {
		t.Errorf("kernel time %.1f%% implausibly low for this workload", res.KernelPct)
	}
	if res.KernelInsnPct <= 0 || res.KernelInsnPct >= 100 {
		t.Errorf("kernel instruction share %.1f%%", res.KernelInsnPct)
	}
	// Figure 2 series renders.
	var sb strings.Builder
	if err := res.Series.WriteSeries(&sb, Figure2Columns()...); err != nil {
		t.Fatal(err)
	}
	if len(res.Series.Snapshots) < 3 {
		t.Fatalf("only %d snapshots collected", len(res.Series.Snapshots))
	}
}

func TestFigure3SeriesVaries(t *testing.T) {
	res := mustTable1(t)
	cols := Figure3Columns()
	deltas := res.Series.Deltas()
	// The benchmark phases should make at least one metric vary across
	// intervals (the point of the Figure 3 time-lapse).
	varies := false
	for _, col := range cols {
		first := col.Value(deltas[0])
		for _, d := range deltas[1:] {
			if v := col.Value(d); v != first && v != 0 {
				varies = true
			}
		}
	}
	if !varies {
		t.Fatal("microarchitectural rates flat across all snapshots")
	}
}

func TestWriteTableRenders(t *testing.T) {
	res := mustTable1(t)
	var sb strings.Builder
	res.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"Cycles", "DTLB Miss Rate %", "uops", "PTLsim"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestThroughputMeasured(t *testing.T) {
	res := mustTable1(t)
	if res.Throughput <= 0 {
		t.Fatal("throughput not measured")
	}
}

func TestSeriesSnapshotAlgebra(t *testing.T) {
	res := mustTable1(t)
	snaps := res.Series.Snapshots
	if len(snaps) < 3 {
		t.Skip("not enough snapshots")
	}
	// (s2-s1)+(s1-s0) == (s2-s0) for a core counter.
	k := "core0.commit.insns"
	lhs := stats.Sub(snaps[2], snaps[1]).Get(k) + stats.Sub(snaps[1], snaps[0]).Get(k)
	rhs := stats.Sub(snaps[2], snaps[0]).Get(k)
	if lhs != rhs {
		t.Fatalf("snapshot algebra: %d vs %d", lhs, rhs)
	}
}
