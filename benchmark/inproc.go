package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ptlsim/benchmark/guests"
	"ptlsim/internal/core"
	"ptlsim/internal/guest"
	"ptlsim/internal/k8"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

// workloadDef is one benchmark workload. BENCHMARK.json records why
// each exists; README.md says which layers each stresses.
type workloadDef struct {
	name string
	run  func(o options, rep *report) error
}

var workloads = []workloadDef{
	{"rsync_ooo", func(o options, rep *report) error {
		return runInproc(o, rep, guestDef{mode: core.ModeSim, build: rsyncGuest(rsyncCorpus(4)), warmCycles: 1_000_000})
	}},
	{"rsync_seq", func(o options, rep *report) error {
		return runInproc(o, rep, guestDef{mode: core.ModeNative, build: rsyncGuest(rsyncCorpus(48)), warmCycles: 3_000_000})
	}},
	{"memwalk_ooo", func(o options, rep *report) error {
		return runInproc(o, rep, guestDef{mode: core.ModeSim, build: guests.Memwalk, warmCycles: 1_000_000})
	}},
	{"serve_closed", runServe},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runWorkload runs o.workload and returns its report.
func runWorkload(o options) (*report, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rep := newReport(o.workload)
	rep.note("GOMAXPROCS %d, GOGC %s", runtime.GOMAXPROCS(0), os.Getenv("GOGC"))
	if err := w.run(o, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// Rsync workload geometry: the paper's rsync-over-ssh guest with 8 KiB
// files, a quarter of the blocks changed, on the scaled 220,000-cycle
// timer tick the repository's own bench scale uses.
const (
	rsyncFileSize = 8192
	rsyncChange   = 0.25
	rsyncTimer    = 220_000
)

func rsyncCorpus(nfiles int) guest.CorpusSpec {
	return guest.CorpusSpec{NFiles: nfiles, FileSize: rsyncFileSize, ChangeFraction: rsyncChange}
}

// maxRunCycles aborts a wedged guest (the repository's bench-scale cap).
const maxRunCycles = 4_000_000_000

// quantum is the cycle length of one step of a repetition, and of one
// span of a traced one.
const quantum = 50_000

// guestDef is an in-process workload: a guest builder, the engine it
// runs on, and how many cycles of the guest one set-up runs as warm-up.
type guestDef struct {
	mode core.Mode
	// build assembles the guest for a seed and returns the console
	// output a correct run prints, computed in Go from the same seed.
	build      func(seed int64) (kern.BuildSpec, string, error)
	warmCycles uint64
}

// rsyncGuest builds the rsync guest over corpus cs reseeded per run.
func rsyncGuest(cs guest.CorpusSpec) func(int64) (kern.BuildSpec, string, error) {
	return func(seed int64) (kern.BuildSpec, string, error) {
		cs.Seed = seed
		spec, err := guest.RsyncBenchmark(cs, rsyncTimer)
		if err != nil {
			return kern.BuildSpec{}, "", err
		}
		_, newData := cs.Generate()
		return spec, fmt.Sprintf("rsync ok  %016x\n", cs.ExpectedChecksum(newData)), nil
	}
}

// machineConfig is the K8 configuration of the paper's Table 1; the
// native-mode workloads build the same machine and never leave
// core.ModeNative.
func machineConfig() core.Config {
	return core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1}
}

// booted is a machine ready to run, with the spans of building it.
type booted struct {
	m    *core.Machine
	img  *kern.Image
	spec kern.BuildSpec
	want string

	kernMs, machineMs float64
}

// boot builds the guest, the domain and the machine for seed.
func (g guestDef) boot(seed int64, tr *tracer, trace string, parent int) (*booted, error) {
	s := tr.begin(trace, "guest.build", parent)
	spec, want, err := g.build(seed)
	tr.end(s, nil)
	if err != nil {
		return nil, err
	}
	tree := stats.NewTree()
	spec.Tree = tree

	s = tr.begin(trace, "kern.Build", parent)
	t0 := time.Now()
	img, err := kern.Build(spec)
	kernMs := msSince(t0)
	tr.end(s, nil)
	if err != nil {
		return nil, err
	}

	s = tr.begin(trace, "core.NewMachine", parent)
	t0 = time.Now()
	m := core.NewMachine(img.Domain, tree, machineConfig())
	m.SwitchMode(g.mode)
	machineMs := msSince(t0)
	tr.end(s, nil)
	return &booted{m: m, img: img, spec: spec, want: want, kernMs: kernMs, machineMs: machineMs}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// fingerprint is what must not move under a speed-only change: the
// simulated outcome of one run.
type fingerprint struct {
	Cycles     uint64 `json:"cycles"`
	Insns      int64  `json:"insns"`
	ConsoleFNV uint32 `json:"console_fnv32"`
	StatsFNV   uint32 `json:"stats_fnv32"`
}

func fnv32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// statsFNV hashes the whole stats tree as sorted path=value lines.
func statsFNV(tree *stats.Tree) uint32 {
	h := fnv.New32a()
	for _, p := range tree.Paths() {
		fmt.Fprintf(h, "%s=%d\n", p, tree.Lookup(p).Value())
	}
	return h.Sum32()
}

func fingerprintOf(m *core.Machine) fingerprint {
	return fingerprint{
		Cycles: m.Cycle, Insns: m.Insns(),
		ConsoleFNV: fnv32(m.Dom.Console()), StatsFNV: statsFNV(m.Tree),
	}
}

// counter reads one stats-tree value (0 when the path is absent).
func counter(tree *stats.Tree, path string) float64 {
	if c := tree.Lookup(path); c != nil {
		return float64(c.Value())
	}
	return 0
}

// busyCycles is the machine's cycle count minus the cycles the idle
// skip fast-forwarded over: the cycles the core models actually stepped.
func busyCycles(m *core.Machine) uint64 {
	return m.Cycle - uint64(counter(m.Tree, "external.cycles_in_mode.idle"))
}

// runQuanta runs m to shutdown in quantum-cycle steps. With a tracer
// every step is a span annotated with the stats-tree deltas of the step
// — the paper's Figure 2 time-lapse (user / kernel / idle cycles) with
// the host time it cost. Untraced runs take the same steps, so tracing
// is the only difference between the two.
func runQuanta(m *core.Machine, tr *tracer, trace string, parent int) error {
	deltas := []struct{ attr, path string }{
		{"user", "external.cycles_in_mode.user"},
		{"kernel", "external.cycles_in_mode.kernel"},
		{"idle", "external.cycles_in_mode.idle"},
		{"uops", "core0.commit.uops"},
		{"l1d_misses", "core0.cache.l1d.misses"},
		{"dtlb_misses", "core0.dtlb.misses"},
		{"mispredicts", "core0.mispredicts"},
	}
	read := func() []float64 {
		vs := make([]float64, len(deltas))
		for i, d := range deltas {
			vs[i] = counter(m.Tree, d.path)
		}
		return vs
	}
	var prev []float64
	var prevCycle uint64
	var prevInsns int64
	if tr != nil {
		prev, prevCycle, prevInsns = read(), m.Cycle, m.Insns()
	}
	for !m.Dom.ShutdownReq {
		if m.Cycle >= maxRunCycles {
			return fmt.Errorf("cycle budget %d exhausted", uint64(maxRunCycles))
		}
		s := tr.begin(trace, "core.Machine.RunUntilCycle", parent)
		err := m.RunUntilCycle(m.Cycle + quantum)
		if tr != nil {
			cur := read()
			attrs := map[string]float64{
				"cycles": float64(m.Cycle - prevCycle),
				"insns":  float64(m.Insns() - prevInsns),
			}
			for i, d := range deltas {
				attrs[d.attr] = cur[i] - prev[i]
			}
			attrs["busy_cycles"] = attrs["cycles"] - attrs["idle"]
			tr.end(s, attrs)
			prev, prevCycle, prevInsns = cur, m.Cycle, m.Insns()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// repResult is one timed repetition.
type repResult struct {
	fp      fingerprint
	reg     region
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
	peakRSS float64
	traced  bool
}

// setUp times one set-up, everything between "the user asked" and "the
// simulator is running its guest": guest assembly, kern.Build,
// core.NewMachine and the first warmCycles of the guest, which also pay
// for any lazy initialisation behind the first step. The machine is
// thrown away; what is kept is the steal-corrected time of the whole and
// the milliseconds of its kern.Build and core.NewMachine spans.
func (g guestDef) setUp(seed int64, clock *hostClock, tr *tracer, i int) (host, kernMs, machineMs float64, err error) {
	runtime.GC()
	trace := "setup-" + strconv.Itoa(i)
	root := tr.begin(trace, "setup", 0)
	st := clock.now()
	b, err := g.boot(seed, tr, trace, root)
	if err != nil {
		return 0, 0, 0, err
	}
	s := tr.begin(trace, "warm-up", root)
	err = b.m.RunUntilCycle(g.warmCycles)
	tr.end(s, nil)
	host = clock.since(st).host
	tr.end(root, nil)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("set-up warm-up: %w", err)
	}
	return host, b.kernMs, b.machineMs, nil
}

// runInproc is the protocol of the three in-process workloads: run the
// K8 reference once, then alternate a set-up and a timed repetition of
// the whole guest on a fresh machine until the window closes. setup_s is
// the median of the set-ups; spreading them over the window keeps one
// short spell of host contention from hitting them all.
func runInproc(o options, rep *report, g guestDef) error {
	clock := newHostClock()
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	ref, err := g.k8Reference(o.seed)
	if err != nil {
		return fmt.Errorf("K8 reference run: %w", err)
	}

	// In a traced run every second repetition records spans, so the
	// traced-vs-untraced difference comes from one process on one stretch
	// of host time.
	var setupHost, kernMs, machineMs []float64
	var reps []repResult
	var rounds []float64 // wall seconds of each set-up and repetition together
	var last *booted
	start := time.Now()
	for i := 0; o.maxReps == 0 || i < o.maxReps; i++ {
		if i >= o.minReps && time.Since(start).Seconds()+estMedian(rounds) > o.seconds {
			break
		}
		last = nil // the previous machine must not weigh on this round's heap
		t0 := time.Now()
		host, kms, mms, err := g.setUp(o.seed, clock, tr, i)
		if err != nil {
			return err
		}
		setupHost, kernMs, machineMs = append(setupHost, host), append(kernMs, kms), append(machineMs, mms)

		r, b, err := g.repetition(o.seed, clock, tr, i, tr != nil && i%2 == 1)
		if err != nil {
			return fmt.Errorf("repetition %d: %w", i, err)
		}
		reps, last = append(reps, r), b
		kernMs, machineMs = append(kernMs, b.kernMs), append(machineMs, b.machineMs)
		rounds = append(rounds, time.Since(t0).Seconds())

		rep.attempted++
		switch console := b.m.Dom.Console(); {
		case console != b.want:
			rep.fail("repetition %d: console %q, want %q", i, console, b.want)
		case r.fp != reps[0].fp:
			rep.fail("repetition %d: fingerprint %+v differs from repetition 0's %+v", i, r.fp, reps[0].fp)
		}
	}
	first := reps[0].fp
	if err := checkGolden(o, rep.workload, first); err != nil {
		// A wrong simulated outcome makes every repetition wrong.
		rep.failed = rep.attempted
		rep.failures = append(rep.failures, err.Error())
	}

	t := summarize(reps)
	busy := float64(busyCycles(last.m))
	insns := float64(first.Insns)
	rep.set("setup_s", estMedian(setupHost))
	rep.set("busy_cycles_per_s", busy/t.host)
	rep.set("insns_per_s", insns/t.host)
	rep.set("alloc_bytes_per_insn", estMedian(t.bytes)/insns)
	rep.set("allocs_per_kinsn", 1000*estMedian(t.mallocs)/insns)
	// The smallest high-water mark of any repetition: the machine and the
	// heap of a run whose collections kept up. A collection that falls
	// behind adds 2-8 MiB of overshoot to some repetitions and not to
	// others, and to the median in some runs and not in others.
	rep.set("peak_rss_mb", quantile(t.peakRSS, 0))
	rep.set("k8_cycles_err_pct", ref.cyclesErrPct(busy))

	rep.note("%d repetitions of %.0f busy cycles, %.0f insns; fingerprint cycles=%d insns=%d console_fnv32=%d stats_fnv32=%d",
		len(reps), busy, insns, first.Cycles, first.Insns, first.ConsoleFNV, first.StatsFNV)
	rep.set("host.steal_frac", t.window.stealFrac())
	rep.set("host.steal_supported", b2f(clock.supported))
	rep.set("host.rep_iqr_over_median", iqrOverMedian(t.hosts))
	rep.set("host.gc_cycles", t.gcs)
	rep.set("host.gc_pause_ms", t.pauseMs)
	rep.set("host.setup_iqr_over_median", iqrOverMedian(setupHost))
	rep.set("k8.total_cycles_err_pct", ref.totalCyclesErrPct(float64(first.Cycles)))
	if tr == nil {
		return nil
	}

	// Per-layer table: simulated counts from the stats tree of the last
	// repetition (every repetition's tree is identical), host cost from
	// the timed repetitions, then the checkpoint path and the
	// micro-drives.
	if len(t.tracedHosts) > 0 && len(t.untracedHosts) > 0 {
		rep.set("host.trace_overhead_frac", 1-estimate(t.untracedHosts)/estimate(t.tracedHosts))
	}
	if g.mode == core.ModeSim {
		oooLayer(rep, last.m.Tree, ref.model, t.host, busy)
	} else {
		seqLayer(rep, last.m.Tree, t.host)
	}
	rep.set("core.new_machine_ms", estMedian(machineMs))
	rep.set("kern.build_ms", estMedian(kernMs))
	return finishTraced(o, rep, tr, last)
}

// finishTraced is the end of every traced run: the layer metrics any
// finished machine has, the checkpoint path and the micro-drives on
// that machine, and the span file.
func finishTraced(o options, rep *report, tr *tracer, last *booted) error {
	machineLayer(rep, last.m)
	if err := snapshotLayer(rep, tr, o, last.m); err != nil {
		return err
	}
	if err := microDrives(rep, last); err != nil {
		return err
	}
	path, err := tr.write(o.outDir, rep.workload)
	if err != nil {
		return err
	}
	rep.note("%d spans written to %s", len(tr.spans), path)
	return nil
}

// timing is what the timed repetitions of one run add up to.
type timing struct {
	host   float64 // estimated steal-corrected seconds per repetition
	window region  // all repetitions together

	hosts          []float64 // per repetition
	mallocs, bytes []float64 // per repetition
	peakRSS        []float64 // per repetition, MiB
	gcs, pauseMs   float64   // over all repetitions

	// hosts, split by whether the repetition recorded spans.
	tracedHosts, untracedHosts []float64
}

func summarize(reps []repResult) timing {
	var t timing
	for _, r := range reps {
		t.window = t.window.add(r.reg)
		t.hosts = append(t.hosts, r.reg.host)
		t.mallocs, t.bytes = append(t.mallocs, float64(r.mallocs)), append(t.bytes, float64(r.bytes))
		t.peakRSS = append(t.peakRSS, r.peakRSS)
		t.gcs += float64(r.gcs)
		t.pauseMs += float64(r.pauseNs) / 1e6
		if r.traced {
			t.tracedHosts = append(t.tracedHosts, r.reg.host)
		} else {
			t.untracedHosts = append(t.untracedHosts, r.reg.host)
		}
	}
	t.host = estimate(t.hosts)
	return t
}

// oooLayer reports the out-of-order core's layer metrics (and the
// caches, TLBs and predictor it drives) from a sim-mode stats tree,
// with the Table 1 rows against the K8 reference.
func oooLayer(rep *report, tree *stats.Tree, ref *k8.Model, hostPerRun, busy float64) {
	get := func(path string) float64 { return counter(tree, path) }
	insns, uopsCommitted := get("core0.commit.insns"), get("core0.commit.uops")
	rep.set("ooo.host_ns_per_busy_cycle", 1e9*hostPerRun/busy)
	rep.set("ooo.host_ns_per_commit_uop", 1e9*hostPerRun/uopsCommitted)
	rep.set("ooo.ipc", insns/busy)
	rep.set("ooo.commit_uops", uopsCommitted)
	rep.set("ooo.replays_per_commit_uop", get("core0.replays")/uopsCommitted)
	rep.set("ooo.stall_iq_full", get("core0.stall.iq_full"))
	rep.set("ooo.stall_rob_full", get("core0.stall.rob_full"))
	rep.set("ooo.pipeline_flushes", get("core0.pipeline_flushes"))
	rep.set("tlb.dtlb_miss_per_kinsn", 1000*get("core0.dtlb.misses")/insns)
	rep.set("tlb.itlb_misses", get("core0.itlb.misses"))
	rep.set("tlb.pagewalks", get("core0.pagewalks"))
	l1dAcc := get("core0.cache.l1d.accesses")
	rep.set("cache.l1d_miss_ratio", get("core0.cache.l1d.misses")/l1dAcc)
	rep.set("cache.l2_misses", get("core0.cache.l2.misses"))
	rep.set("cache.mem_accesses", get("core0.cache.mem.accesses"))
	rep.set("cache.mshr_merges", get("core0.cache.mshr.merges"))
	rep.set("cache.bank_conflict_ratio", get("core0.cache.l1d.bank_conflicts")/l1dAcc)
	rep.set("cache.writebacks", get("core0.cache.writebacks"))
	rep.set("bpred.branches", get("core0.branches"))
	rep.set("bpred.mispredict_ratio", get("core0.mispredicts")/get("core0.branches"))
	rep.set("k8.uops_err_pct", errPct(uopsCommitted, float64(ref.Uops.Value())))
	rep.set("k8.l1d_miss_err_pct", errPct(get("core0.cache.l1d.misses"), float64(ref.L1DMisses.Value())))
	rep.set("k8.mispredict_err_pct", errPct(get("core0.mispredicts"), float64(ref.Mispredicts.Value())))
	rep.set("k8.dtlb_miss_err_pct", errPct(get("core0.dtlb.misses"), float64(ref.DTLBMisses.Value())))
}

// seqLayer reports the functional engine's layer metrics from a
// native-mode stats tree.
func seqLayer(rep *report, tree *stats.Tree, hostPerRun float64) {
	seqInsns := counter(tree, "seq0.insns")
	rep.set("seqcore.host_ns_per_insn", 1e9*hostPerRun/seqInsns)
	rep.set("seqcore.uops_per_insn", counter(tree, "seq0.uops")/seqInsns)
	rep.set("bpred.branches", counter(tree, "seq0.branches"))
}

// machineLayer reports the layer metrics every finished machine has,
// whichever engine ran it.
func machineLayer(rep *report, m *core.Machine) {
	tree, fp := m.Tree, fingerprintOf(m)
	lookups := counter(tree, "bbcache.hits") + counter(tree, "bbcache.misses")
	rep.set("bbcache.hit_ratio", counter(tree, "bbcache.hits")/lookups)
	rep.set("bbcache.misses", counter(tree, "bbcache.misses"))
	cycles := float64(m.Cycle)
	rep.set("core.idle_frac", counter(tree, "external.cycles_in_mode.idle")/cycles)
	rep.set("core.user_frac", counter(tree, "external.cycles_in_mode.user")/cycles)
	rep.set("core.kernel_frac", counter(tree, "external.cycles_in_mode.kernel")/cycles)
	rep.set("core.stats_fnv32", float64(fp.StatsFNV))
	rep.set("hv.console_fnv32", float64(fp.ConsoleFNV))
	rep.set("hv.hypercalls", counter(tree, "hv.hypercalls"))
	rep.set("hv.timer_fires", counter(tree, "hv.timer.fires"))
}

// repetition runs the whole guest once on a fresh machine. Only the
// run itself is timed and counted; building the machine and the forced
// collection before it are not.
func (g guestDef) repetition(seed int64, clock *hostClock, tr *tracer, i int, traced bool) (repResult, *booted, error) {
	trace := "rep-" + strconv.Itoa(i)
	root := 0
	if traced {
		root = tr.begin(trace, "repetition", 0)
	} else {
		tr = nil
	}
	b, err := g.boot(seed, tr, trace, root)
	if err != nil {
		return repResult{}, nil, err
	}
	// The repetition starts the way a fresh process would: garbage
	// collected, free memory returned to the system, and the resident-set
	// high-water mark restarted, so that it reads what this repetition
	// needs and not what an earlier one left behind.
	debug.FreeOSMemory()
	resetPeakRSS()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := clock.now()
	err = runQuanta(b.m, tr, trace, root)
	reg := clock.since(st)
	runtime.ReadMemStats(&after)
	tr.end(root, nil)
	if err != nil {
		return repResult{}, nil, fmt.Errorf("%w (console %q)", err, b.m.Dom.Console())
	}
	return repResult{
		fp: fingerprintOf(b.m), reg: reg, traced: traced, peakRSS: peakRSSMiB(),
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     after.NumGC - before.NumGC,
		pauseNs: after.PauseTotalNs - before.PauseTotalNs,
	}, b, nil
}

// reference is one run of the guest on the functional engine with the
// K8 hardware-counter model attached — the "native K8" column of the
// paper's Table 1, set up exactly as internal/experiments does.
type reference struct {
	model *k8.Model
	// idle is how many cycles the guest slept in the native run.
	idle float64
}

func (g guestDef) k8Reference(seed int64) (reference, error) {
	native := g
	native.mode = core.ModeNative
	b, err := native.boot(seed, nil, "", 0)
	if err != nil {
		return reference{}, err
	}
	model := k8.New(b.m.Tree, "k8native")
	model.FlushCaches()
	b.m.SeqCores()[0].Obs = model
	if err := b.m.Run(maxRunCycles); err != nil {
		return reference{}, err
	}
	if console := b.m.Dom.Console(); console != b.want {
		return reference{}, fmt.Errorf("console %q, want %q", console, b.want)
	}
	return reference{model: model, idle: counter(b.m.Tree, "external.cycles_in_mode.idle")}, nil
}

// cyclesErrPct is k8_cycles_err_pct: how far the busy cycles an engine
// spent on the guest are from the K8 model's. Busy, not total: a run
// ends on a guest timer tick, so total cycles move in steps of a whole
// tick (220,000 cycles, 5.5% of rsync_ooo) from one seed to the next.
func (r reference) cyclesErrPct(engineBusy float64) float64 {
	return errPct(engineBusy, float64(r.model.Cycles()))
}

// totalCyclesErrPct is the cycle row as Table 1 prints it: total cycles,
// the guest's sleep included on both sides, as silicon counts them.
func (r reference) totalCyclesErrPct(engineCycles float64) float64 {
	return errPct(engineCycles, float64(r.model.Cycles())+r.idle)
}

// errPct is |got − ref| as a percentage of ref.
func errPct(got, ref float64) float64 {
	if ref == 0 {
		return 0
	}
	d := got - ref
	if d < 0 {
		d = -d
	}
	return 100 * d / ref
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// resetPeakRSS restarts the kernel's resident-set high-water mark of
// this process from its current resident set (Linux 4.0 and later; where
// it fails the mark keeps covering the whole life of the process).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads this process's resident-set high-water mark (0 where
// /proc does not offer it).
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
