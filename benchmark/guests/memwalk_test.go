package guests

import (
	"testing"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

func runMemwalk(t *testing.T, seed int64, mode core.Mode) (*core.Machine, string, string) {
	t.Helper()
	spec, want, err := Memwalk(seed)
	if err != nil {
		t.Fatal(err)
	}
	tree := stats.NewTree()
	spec.Tree = tree
	img, err := kern.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(img.Domain, tree, core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1})
	m.SwitchMode(mode)
	start := time.Now()
	if err := m.Run(4_000_000_000); err != nil {
		t.Fatalf("run: %v (console %q)", err, img.Domain.Console())
	}
	t.Logf("mode %d: %d cycles, %d insns, %v host", mode, m.Cycle, m.Insns(), time.Since(start))
	return m, img.Domain.Console(), want
}

// TestMemwalkChecksum checks the guest against the Go-side expected
// console on the functional engine, for two seeds that must differ.
func TestMemwalkChecksum(t *testing.T) {
	_, got1, want1 := runMemwalk(t, 1, core.ModeNative)
	if got1 != want1 {
		t.Fatalf("seed 1: console %q, want %q", got1, want1)
	}
	_, got2, want2 := runMemwalk(t, 2, core.ModeNative)
	if got2 != want2 {
		t.Fatalf("seed 2: console %q, want %q", got2, want2)
	}
	if want1 == want2 {
		t.Fatalf("seeds 1 and 2 give the same checksum %q", want1)
	}
}

// TestMemwalkIsMemoryBound pins the property the memwalk_ooo workload
// exists for: on the K8 core it must miss the L1D and the DTLB almost
// everywhere and leave the pipeline mostly stalled. A change that turns
// it into a cache-resident loop fails here, not silently in a trend.
func TestMemwalkIsMemoryBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full guest on the cycle accurate core")
	}
	m, got, want := runMemwalk(t, 20070425, core.ModeSim)
	if got != want {
		t.Fatalf("console %q, want %q", got, want)
	}
	get := func(path string) float64 { return float64(m.Tree.Lookup(path).Value()) }
	insns := get("core0.commit.insns")
	busy := float64(m.Cycle) - get("external.cycles_in_mode.idle")
	missRatio := get("core0.cache.l1d.misses") / get("core0.cache.l1d.accesses")
	dtlbPerKinsn := 1000 * get("core0.dtlb.misses") / insns
	ipc := insns / busy
	t.Logf("l1d miss ratio %.3f, dtlb misses/kinsn %.1f, ipc %.4f", missRatio, dtlbPerKinsn, ipc)
	if missRatio <= 0.5 {
		t.Errorf("cache.l1d_miss_ratio = %.3f, want > 0.5", missRatio)
	}
	if dtlbPerKinsn <= 50 {
		t.Errorf("tlb.dtlb_miss_per_kinsn = %.1f, want > 50", dtlbPerKinsn)
	}
	if ipc >= 0.2 {
		t.Errorf("ooo.ipc = %.4f, want < 0.2", ipc)
	}
}
