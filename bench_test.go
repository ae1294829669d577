// Package ptlsim_test is the benchmark harness regenerating every
// table and figure of the paper's evaluation (§5), plus ablation
// benchmarks for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers come from this reproduction's scaled workload; the
// comparisons that matter (who wins, in which direction, by what
// order) are reported as benchmark metrics. EXPERIMENTS.md records a
// reference run paired with the paper's published values.
package ptlsim_test

import (
	"strings"
	"testing"

	"ptlsim/internal/cache"
	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/experiments"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

// table1 caches the paired Table 1 run for the benchmarks that only
// read different slices of it.
var table1Cache *experiments.Table1Result

func table1(b *testing.B) *experiments.Table1Result {
	b.Helper()
	if table1Cache == nil {
		res, err := experiments.RunTable1(experiments.BenchScale())
		if err != nil {
			b.Fatal(err)
		}
		table1Cache = res
	}
	return table1Cache
}

// BenchmarkTable1 regenerates the paper's Table 1: the accuracy
// comparison between the cycle accurate model and the K8
// hardware-counter reference across all major statistics. Reported
// metrics are the sim-vs-native percentage differences per row.
func BenchmarkTable1(b *testing.B) {
	var res *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunTable1(experiments.BenchScale())
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	table1Cache = res
	if !strings.Contains(res.SimConsole, "rsync ok") {
		b.Fatalf("benchmark failed: %q", res.SimConsole)
	}
	for _, row := range res.Rows {
		name := strings.ReplaceAll(row.Name, " ", "_")
		unit := "%diff/" + name
		if row.Percent {
			unit = "pt-diff/" + name
		}
		b.ReportMetric(row.Diff(), unit)
	}
}

// BenchmarkFigure2 regenerates the paper's Figure 2: the time-lapse
// of cycles spent in user, kernel and idle mode, whose aggregate (the
// paper measured 15% kernel, 27% idle) demonstrates what
// userspace-only simulation cannot account for.
func BenchmarkFigure2(b *testing.B) {
	res := table1(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := res.Series.WriteSeries(&sb, experiments.Figure2Columns()...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.UserPct, "user%")
	b.ReportMetric(res.KernelPct, "kernel%")
	b.ReportMetric(res.IdlePct, "idle%")
	b.ReportMetric(float64(len(res.Series.Snapshots)), "snapshots")
}

// BenchmarkFigure3 regenerates the paper's Figure 3: the time-lapse of
// branch mispredict rate, DTLB miss rate and L1D miss rate per
// snapshot interval. The reported metrics are the whole-run rates.
func BenchmarkFigure3(b *testing.B) {
	res := table1(b)
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := res.Series.WriteSeries(&sb, experiments.Figure3Columns()...); err != nil {
			b.Fatal(err)
		}
	}
	find := func(name string) experiments.Row {
		for _, r := range res.Rows {
			if r.Name == name {
				return r
			}
		}
		b.Fatalf("row %q missing", name)
		return experiments.Row{}
	}
	b.ReportMetric(find("Mispredicted %").Sim, "mispredict%")
	b.ReportMetric(find("DTLB Miss Rate %").Sim, "dtlbmiss%")
	b.ReportMetric(find("L1 Misses as %").Sim, "l1dmiss%")
}

// BenchmarkUserspaceOnlyPitfall quantifies §6.4: the fraction of all
// cycles a userspace-only simulator would misattribute (kernel time
// plus idle time), plus the kernel-instruction share.
func BenchmarkUserspaceOnlyPitfall(b *testing.B) {
	res := table1(b)
	for i := 0; i < b.N; i++ {
		_ = res.KernelPct + res.IdlePct
	}
	kInsns := float64(res.SimTree.Lookup("core0.commit.kernel_insns").Value())
	uInsns := float64(res.SimTree.Lookup("core0.commit.user_insns").Value())
	b.ReportMetric(res.KernelPct+res.IdlePct, "unaccounted-cycles%")
	b.ReportMetric(100*kInsns/(kInsns+uInsns), "kernel-insns%")
}

// --- ablations ---------------------------------------------------------

// BenchmarkAblationTLBSize compares the Table 1 DTLB configuration
// (32-entry, the paper's PTLsim model) against a 1024-entry DTLB
// standing in for the K8's two-level hierarchy: the miss-count gap is
// the paper's "+144% DTLB misses" row.
func BenchmarkAblationTLBSize(b *testing.B) {
	cfg := experiments.BenchScale()
	run := func(entries int) float64 {
		oc := ooo.K8Config()
		oc.DTLBEntries, oc.DTLBAssoc = entries, entries
		m, console, _, err := experiments.RunSimWith(cfg, core.Config{Core: oc, NativeCPI: 1, ThreadsPerCore: 1})
		if err != nil || !strings.Contains(console, "rsync ok") {
			b.Fatalf("%v %q", err, console)
		}
		return float64(m.Tree.Lookup("core0.dtlb.misses").Value())
	}
	var small, large float64
	for i := 0; i < b.N; i++ {
		small = run(32)
		large = run(1024)
	}
	b.ReportMetric(small, "misses-32e")
	b.ReportMetric(large, "misses-1024e")
	b.ReportMetric(100*(small-large)/large, "gap%")
}

// BenchmarkAblationLoadHoisting compares cycles with load hoisting
// disabled (the K8 configuration of §5) and enabled (the default
// core's speculative loads with replay).
func BenchmarkAblationLoadHoisting(b *testing.B) {
	cfg := experiments.BenchScale()
	run := func(hoist bool) float64 {
		oc := ooo.K8Config()
		oc.LoadHoisting = hoist
		m, console, _, err := experiments.RunSimWith(cfg, core.Config{Core: oc, NativeCPI: 1, ThreadsPerCore: 1})
		if err != nil || !strings.Contains(console, "rsync ok") {
			b.Fatalf("%v %q", err, console)
		}
		// Busy cycles only: idle waits are workload-fixed and would
		// drown the microarchitectural difference.
		return float64(m.Cycle) - float64(m.Tree.Lookup("external.cycles_in_mode.idle").Value())
	}
	var off, on float64
	for i := 0; i < b.N; i++ {
		off = run(false)
		on = run(true)
	}
	b.ReportMetric(off, "cycles-nohoist")
	b.ReportMetric(on, "cycles-hoist")
	b.ReportMetric(100*(off-on)/on, "hoisting-speedup%")
}

// BenchmarkAblationL1Banking compares the K8's enforced 8-bank L1
// (conflicts replay, §5: "typically less than 2% of accesses") with an
// ideal unbanked L1.
func BenchmarkAblationL1Banking(b *testing.B) {
	cfg := experiments.BenchScale()
	run := func(banked bool) (cycles, replays, accesses float64) {
		oc := ooo.K8Config()
		oc.EnforceBanking = banked
		m, console, _, err := experiments.RunSimWith(cfg, core.Config{Core: oc, NativeCPI: 1, ThreadsPerCore: 1})
		if err != nil || !strings.Contains(console, "rsync ok") {
			b.Fatalf("%v %q", err, console)
		}
		busy := float64(m.Cycle) - float64(m.Tree.Lookup("external.cycles_in_mode.idle").Value())
		return busy,
			float64(m.Tree.Lookup("core0.bank_replays").Value()),
			float64(m.Tree.Lookup("core0.cache.l1d.accesses").Value())
	}
	var bc, br, ba, ic float64
	for i := 0; i < b.N; i++ {
		bc, br, ba = run(true)
		ic, _, _ = run(false)
	}
	b.ReportMetric(100*br/ba, "bank-conflict%")
	b.ReportMetric(100*(bc-ic)/ic, "banking-cost%")
}

// BenchmarkAblationBBCache compares simulator host throughput with the
// basic block cache enabled vs effectively disabled, verifying the
// §2.1 claim: a pure simulator speed optimization with no effect on
// simulated behavior.
func BenchmarkAblationBBCache(b *testing.B) {
	cfg := experiments.BenchScale()
	run := func(capacity int) (wallSec float64, cycles uint64, console string) {
		m, cons, wall, err := experiments.RunSimWith(cfg, core.Config{
			Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1,
			BBCacheCapacity: capacity})
		if err != nil {
			b.Fatal(err)
		}
		return wall.Seconds(), m.Cycle, cons
	}
	var onWall, offWall float64
	var onCycles, offCycles uint64
	var onOut, offOut string
	for i := 0; i < b.N; i++ {
		onWall, onCycles, onOut = run(0) // default capacity
		offWall, offCycles, offOut = run(1)
	}
	if onCycles != offCycles || onOut != offOut {
		b.Fatalf("BB cache changed simulated behavior: %d vs %d cycles", onCycles, offCycles)
	}
	b.ReportMetric(offWall/onWall, "decode-slowdown-x")
}

// BenchmarkAblationCoherence compares the instant-visibility coherence
// model with the detailed MOESI bus model on a two-core shared-counter
// contention workload (the paper's future-work interconnect, §7).
func BenchmarkAblationCoherence(b *testing.B) {
	run := func(moesi bool) (cycles uint64, moves float64) {
		tree := stats.NewTree()
		var cc cache.Controller
		if moesi {
			cc = cache.NewMOESICoherence(tree, 20, 30)
		} else {
			cc = cache.NewInstantCoherence(tree)
		}
		h0 := cache.NewHierarchy(cache.K8Hierarchy(), tree, "c0")
		h1 := cache.NewHierarchy(cache.K8Hierarchy(), tree, "c1")
		h0.AttachCoherence(cc, 0)
		h1.AttachCoherence(cc, 1)
		// Ping-pong a line between the two cores.
		now := uint64(0)
		for i := 0; i < 20000; i++ {
			r0 := h0.Store(0x8000, now)
			now = r0.Ready
			r1 := h1.Store(0x8000, now)
			now = r1.Ready
		}
		return now, float64(tree.Lookup("coherence.line_moves").Value())
	}
	var instant, moesi uint64
	var moves float64
	for i := 0; i < b.N; i++ {
		instant, _ = run(false)
		moesi, moves = run(true)
	}
	b.ReportMetric(float64(instant), "cycles-instant")
	b.ReportMetric(float64(moesi), "cycles-moesi")
	b.ReportMetric(moves, "line-moves")
}

// BenchmarkAblationSampling measures statistical sampled simulation
// (§2.3): wall-time speedup versus the full cycle accurate run, and
// the error it introduces into the sampled mispredict rate.
func BenchmarkAblationSampling(b *testing.B) {
	build := func(mode core.Mode) (*core.Machine, *stats.Tree) {
		m, err := experiments.Boot(experiments.BenchScale(), core.DefaultConfig(), mode)
		if err != nil {
			b.Fatal(err)
		}
		return m, m.Tree
	}
	rate := func(tree *stats.Tree) float64 {
		mp := float64(tree.Lookup("core0.mispredicts").Value())
		br := float64(tree.Lookup("core0.branches").Value())
		if br == 0 {
			return 0
		}
		return 100 * mp / br
	}
	var fullRate, sampRate, simShare float64
	for i := 0; i < b.N; i++ {
		mFull, tFull := build(core.ModeSim)
		if err := mFull.Run(0); err != nil {
			b.Fatal(err)
		}
		fullRate = rate(tFull)

		mSamp, tSamp := build(core.ModeNative)
		if err := cosim.RunSampled(mSamp, cosim.SampleConfig{SimInsns: 50_000, NativeInsns: 200_000}, 0); err != nil {
			b.Fatal(err)
		}
		sampRate = rate(tSamp)
		sim := float64(tSamp.Lookup("core0.commit.insns").Value())
		nat := float64(tSamp.Lookup("seq0.insns").Value())
		simShare = 100 * sim / (sim + nat)
	}
	b.ReportMetric(fullRate, "full-mispredict%")
	b.ReportMetric(sampRate, "sampled-mispredict%")
	b.ReportMetric(simShare, "insns-simulated%")
}
