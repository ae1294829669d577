// Package experiments reproduces the paper's evaluation (§5): the
// Table 1 accuracy comparison between the cycle accurate model and the
// K8 hardware-counter reference, the Figure 2 time-lapse of cycles
// spent in user/kernel/idle mode, the Figure 3 time-lapse of
// microarchitectural rates, the simulator-throughput measurement, and
// the §6.4 userspace-only-simulation pitfall quantification.
// ptlsim -experiment table1|figure2|figure3|throughput is its one
// front end; its tests pin the shape of each result and, in
// TestAblations, that each design choice measured on the K8 core moves
// the counters it is about.
package experiments

import (
	"fmt"
	"io"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/guest"
	"ptlsim/internal/k8"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

// Config sizes the rsync benchmark run.
type Config struct {
	Corpus guest.CorpusSpec
	// TimerPeriod in cycles (0 = kern.DefaultTimerPeriod, the paper's
	// 1 kHz at 2.2 GHz).
	TimerPeriod uint64
	// SnapshotCycles for the time-lapse figures (paper: 2.2M).
	SnapshotCycles uint64
	// MaxCycles aborts a wedged run.
	MaxCycles uint64
}

// BenchScale is the default scale (seconds per run, large enough for
// stable rates).
func BenchScale() Config {
	return Config{
		Corpus:         guest.CorpusSpec{NFiles: 4, FileSize: 8192, Seed: 20070425, ChangeFraction: 0.25},
		TimerPeriod:    220_000, // scaled with the workload
		SnapshotCycles: 220_000,
		MaxCycles:      4_000_000_000,
	}
}

// PaperScale approaches the paper's full benchmark (tens of MB,
// billions of cycles) — use from cmd/ptlsim, not from tests.
func PaperScale() Config {
	return Config{
		Corpus:         guest.CorpusSpec{NFiles: 512, FileSize: 65536, Seed: 20070425, ChangeFraction: 0.3},
		TimerPeriod:    2_200_000,
		SnapshotCycles: 2_200_000,
		MaxCycles:      0,
	}
}

// Row is one Table 1 line.
type Row struct {
	Name    string
	Native  float64
	Sim     float64
	Percent bool // values are percentages (diff shown in points)
}

// Diff returns the sim-vs-native difference: relative percent for
// counts, absolute points for rates.
func (r Row) Diff() float64 {
	if r.Percent {
		return r.Sim - r.Native
	}
	if r.Native == 0 {
		return 0
	}
	return 100 * (r.Sim - r.Native) / r.Native
}

// Table1Result holds everything the §5 evaluation produces.
type Table1Result struct {
	Rows []Row

	NativeConsole, SimConsole string

	SimCycles  uint64
	SimInsns   int64
	Series     stats.Series
	SimTree    *stats.Tree
	NativeTree *stats.Tree
	SimWall    time.Duration
	Throughput float64 // simulated cycles per wall second

	// Mode fractions from the cycle accurate run (Figure 2 / §6.4).
	UserPct, KernelPct, IdlePct float64
	// KernelInsnPct is the kernel's share of committed instructions
	// (§6.4).
	KernelInsnPct float64
}

// Scale resolves a workload scale name (small | bench | paper; anything
// else is bench) — the one table every front end (ptlsim -scale, a jobd
// Spec, the benchmarks) reads.
func Scale(name string) Config {
	switch name {
	case "small":
		cfg := BenchScale()
		cfg.Corpus = guest.CorpusSpec{NFiles: 2, FileSize: 2048, Seed: 7, ChangeFraction: 0.3}
		return cfg
	case "paper":
		return PaperScale()
	default:
		return BenchScale()
	}
}

// CoreConfig resolves a core model name (default | k8; anything else is
// k8).
func CoreConfig(name string) ooo.Config {
	if name == "default" {
		return ooo.DefaultConfig()
	}
	return ooo.K8Config()
}

// Boot is the one way to bring up the rsync benchmark guest: build the
// guest image for cfg, wire it to a machine configured by mcfg, and
// select the starting engine. The machine's Tree is the tree the guest
// kernel and hypervisor count into.
func Boot(cfg Config, mcfg core.Config, mode core.Mode) (*core.Machine, error) {
	spec, err := guest.RsyncBenchmark(cfg.Corpus, cfg.TimerPeriod)
	if err != nil {
		return nil, err
	}
	tree := stats.NewTree()
	spec.Tree = tree
	img, err := kern.Build(spec)
	if err != nil {
		return nil, err
	}
	m := core.NewMachine(img.Domain, tree, mcfg)
	m.SwitchMode(mode)
	return m, nil
}

// runNative executes the benchmark on the functional engine with the
// K8 hardware-counter model attached.
func runNative(cfg Config) (*k8.Model, *stats.Tree, string, error) {
	m, err := Boot(cfg, core.DefaultConfig(), core.ModeNative)
	if err != nil {
		return nil, nil, "", err
	}
	model := k8.New(m.Tree, "k8native")
	model.FlushCaches() // the paper's -perfctr cold start
	m.SeqCores()[0].Obs = model
	if err := m.Run(cfg.MaxCycles); err != nil {
		return nil, nil, "", fmt.Errorf("native trial: %w", err)
	}
	// The silicon cycle counter also runs while halted.
	model.AddIdleCycles(uint64(m.Tree.Lookup("external.cycles_in_mode.idle").Value()))
	return model, m.Tree, m.Dom.Console(), nil
}

// runSim executes the benchmark on the cycle accurate K8-configured
// out-of-order core.
func runSim(cfg Config) (*core.Machine, string, time.Duration, error) {
	mcfg := core.Config{
		Core:           ooo.K8Config(),
		NativeCPI:      1.0,
		SnapshotCycles: cfg.SnapshotCycles,
		ThreadsPerCore: 1,
	}
	return RunSimWith(cfg, mcfg)
}

// RunSimWith runs the benchmark on the cycle accurate engine with an
// arbitrary machine configuration (TestAblations varies core parameters
// through this).
func RunSimWith(cfg Config, mcfg core.Config) (*core.Machine, string, time.Duration, error) {
	if mcfg.SnapshotCycles == 0 {
		mcfg.SnapshotCycles = cfg.SnapshotCycles
	}
	m, err := Boot(cfg, mcfg, core.ModeSim)
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	if err := m.Run(cfg.MaxCycles); err != nil {
		return nil, "", 0, fmt.Errorf("sim trial: %w", err)
	}
	return m, m.Dom.Console(), time.Since(start), nil
}

// RunTable1 performs both trials and assembles the Table 1 rows.
func RunTable1(cfg Config) (*Table1Result, error) {
	native, ntree, nconsole, err := runNative(cfg)
	if err != nil {
		return nil, err
	}
	m, sconsole, wall, err := runSim(cfg)
	if err != nil {
		return nil, err
	}
	if nconsole != sconsole {
		return nil, fmt.Errorf("trials disagree: native %q vs sim %q", nconsole, sconsole)
	}
	st := m.Tree

	get := func(path string) float64 { return float64(st.Lookup(path).Value()) }
	simCycles := float64(m.Cycle)
	simInsns := get("core0.commit.insns")
	simUops := get("core0.commit.uops")
	simL1Miss := get("core0.cache.l1d.misses")
	simL1Acc := get("core0.cache.l1d.accesses")
	simBr := get("core0.branches")
	simMp := get("core0.mispredicts")
	simTLB := get("core0.dtlb.misses")
	simMem := get("core0.loads") + get("core0.stores")

	natCycles := float64(native.Cycles())
	natInsns := float64(native.Insns.Value())
	natUops := float64(native.Uops.Value())
	natL1Miss := float64(native.L1DMisses.Value())
	natL1Acc := float64(native.L1DAccesses.Value())
	natBr := float64(native.Branches.Value())
	natMp := float64(native.Mispredicts.Value())
	natTLB := float64(native.DTLBMisses.Value())
	natMem := float64(native.Loads.Value() + native.Stores.Value())

	pct := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return 100 * n / d
	}

	res := &Table1Result{
		Rows: []Row{
			{Name: "Cycles", Native: natCycles, Sim: simCycles},
			{Name: "x86 Insns Committed", Native: natInsns, Sim: simInsns},
			{Name: "uops", Native: natUops, Sim: simUops},
			{Name: "L1 D-cache Misses", Native: natL1Miss, Sim: simL1Miss},
			{Name: "L1 D-cache Accesses", Native: natL1Acc, Sim: simL1Acc},
			{Name: "L1 Misses as %", Native: pct(natL1Miss, natL1Acc), Sim: pct(simL1Miss, simL1Acc), Percent: true},
			{Name: "Total Branches", Native: natBr, Sim: simBr},
			{Name: "Mispredicted Branches", Native: natMp, Sim: simMp},
			{Name: "Mispredicted %", Native: pct(natMp, natBr), Sim: pct(simMp, simBr), Percent: true},
			{Name: "DTLB Misses", Native: natTLB, Sim: simTLB},
			{Name: "DTLB Miss Rate %", Native: pct(natTLB, natMem), Sim: pct(simTLB, simMem), Percent: true},
		},
		NativeConsole: nconsole,
		SimConsole:    sconsole,
		SimCycles:     m.Cycle,
		SimInsns:      int64(simInsns),
		Series:        m.Series(),
		SimTree:       st,
		NativeTree:    ntree,
		SimWall:       wall,
	}
	if wall > 0 {
		res.Throughput = simCycles / wall.Seconds()
	}
	total := get("external.cycles_in_mode.user") + get("external.cycles_in_mode.kernel") + get("external.cycles_in_mode.idle")
	if total > 0 {
		res.UserPct = pct(get("external.cycles_in_mode.user"), total)
		res.KernelPct = pct(get("external.cycles_in_mode.kernel"), total)
		res.IdlePct = pct(get("external.cycles_in_mode.idle"), total)
	}
	kInsns := get("core0.commit.kernel_insns")
	res.KernelInsnPct = pct(kInsns, kInsns+get("core0.commit.user_insns"))
	return res, nil
}

// WriteTable renders the Table 1 comparison.
func (r *Table1Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-24s %16s %16s %9s\n", "Trial", "Native K8", "PTLsim", "%Diff")
	for _, row := range r.Rows {
		unit := "%"
		if !row.Percent {
			unit = "%"
		}
		if row.Percent {
			fmt.Fprintf(w, "%-24s %15.2f%% %15.2f%% %+8.2f%s\n",
				row.Name, row.Native, row.Sim, row.Diff(), "pt")
		} else {
			fmt.Fprintf(w, "%-24s %16.0f %16.0f %+8.2f%s\n",
				row.Name, row.Native, row.Sim, row.Diff(), unit)
		}
	}
}

// Figure2Columns are the user/kernel/idle mode percentages per
// snapshot interval (the paper's Figure 2 series).
func Figure2Columns() []stats.Column {
	total := func(d stats.Snapshot) float64 {
		return float64(d.Get("external.cycles_in_mode.user") +
			d.Get("external.cycles_in_mode.kernel") +
			d.Get("external.cycles_in_mode.idle"))
	}
	mk := func(name, path string) stats.Column {
		return stats.Column{Name: name, Value: func(d stats.Snapshot) float64 {
			t := total(d)
			if t == 0 {
				return 0
			}
			return 100 * float64(d.Get(path)) / t
		}}
	}
	return []stats.Column{
		mk("user%", "external.cycles_in_mode.user"),
		mk("kernel%", "external.cycles_in_mode.kernel"),
		mk("idle%", "external.cycles_in_mode.idle"),
	}
}

// Figure3Columns are the per-interval microarchitectural rates: branch
// mispredict %, DTLB miss % of memory ops, L1D miss % of accesses.
func Figure3Columns() []stats.Column {
	memOps := func(d stats.Snapshot) float64 {
		return float64(d.Get("core0.loads") + d.Get("core0.stores"))
	}
	return []stats.Column{
		stats.Rate("mispred%", "core0.mispredicts", "core0.branches"),
		{Name: "dtlbmiss%", Value: func(d stats.Snapshot) float64 {
			m := memOps(d)
			if m == 0 {
				return 0
			}
			return 100 * float64(d.Get("core0.dtlb.misses")) / m
		}},
		stats.Rate("l1dmiss%", "core0.cache.l1d.misses", "core0.cache.l1d.accesses"),
	}
}
