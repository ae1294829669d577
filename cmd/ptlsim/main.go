// Command ptlsim is the simulator front end: it boots the full-system
// rsync benchmark domain and runs it under the selected engine, then
// reports statistics — the role of the PTLsim core binary in the paper.
//
// Examples:
//
//	ptlsim -mode sim -core k8                 # cycle accurate, K8 config
//	ptlsim -experiment table1                 # the paper's Table 1 run
//	ptlsim -experiment figure2 -o fig2.txt    # time-lapse mode series
//	ptlsim -mode sampled -sim-insns 100000 -native-insns 900000
//	ptlsim -stats-out run.json                # snapshots for ptlstats
//	ptlsim -supervise -journal run.jsonl      # resilient run with crash recovery
//	ptlsim -fuzz -fuzz-seqs 10000             # differential conformance fuzzing
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"ptlsim/internal/conformance"
	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/evlog"
	"ptlsim/internal/experiments"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/selfcheck"
	"ptlsim/internal/simerr"
	"ptlsim/internal/snapshot"
	"ptlsim/internal/stats"
	"ptlsim/internal/supervisor"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "run a paper experiment: table1 | figure2 | figure3 | throughput")
		scale      = flag.String("scale", "bench", "workload scale: small | bench | paper")
		mode       = flag.String("mode", "sim", "execution engine: native | sim | sampled")
		coreKind   = flag.String("core", "k8", "core model config: default | k8")
		nfiles     = flag.Int("nfiles", 0, "override corpus file count")
		filesize   = flag.Int("filesize", 0, "override corpus file size (multiple of 512)")
		change     = flag.Float64("change", -1, "override corpus change fraction")
		timer      = flag.Uint64("timer", 0, "guest timer period in cycles (0 = default)")
		maxCycles  = flag.Uint64("maxcycles", 0, "abort after this many cycles (0 = unlimited; unset = the scale's budget)")
		watchdog   = flag.Uint64("watchdog", 10_000_000, "fail if a core commits nothing for this many cycles (0 = off)")
		selfcheckF = flag.Bool("selfcheck", false, "attach the lockstep commit oracle: shadow every commit on a sequential reference core")
		scInterval = flag.Int64("selfcheck-interval", 1, "compare architectural registers every N committed instructions")
		audit      = flag.Bool("audit", false, "arm the pipeline invariant auditor (ROB/LSQ/physreg/cache/RAS structural checks)")
		auditEvery = flag.Uint64("audit-every", 64, "run the auditor every N cycles")
		triage     = flag.Bool("triage", true, "with -supervise: on a self-check failure, run the checkpoint-seeded divergence search and journal the result")
		inject     = flag.String("inject", "", "fault specs, ';'-separated: kind@insn[:k=v,...] (regflip|memflip|tlbflush|memdelay|robcorrupt)")
		ckptCycles = flag.Uint64("checkpoint-cycles", 0, "checkpoint the machine every N cycles (0 = off)")
		ckptOut    = flag.String("checkpoint-out", "", "write each checkpoint to <prefix>.<k>.ckpt")
		restoreIn  = flag.String("restore", "", "resume from a checkpoint file instead of booting the benchmark")
		supervise  = flag.Bool("supervise", false, "run under the resilient supervisor: retry retryable failures from rotated checkpoints")
		ckptDir    = flag.String("checkpoint-dir", "ptlsim-ckpt", "supervisor checkpoint rotation directory")
		keepCkpts  = flag.Int("keep-checkpoints", 3, "supervisor checkpoint rotation depth")
		maxRetries = flag.Int("max-retries", 5, "supervisor restore-and-retry budget for the whole run")
		degradeAft = flag.Int("degrade-after", 2, "consecutive failures at one restore point before the window runs on the sequential core (negative = never degrade)")
		journalOut = flag.String("journal", "", "append the supervisor run journal (JSONL) to this file")
		fuzzF      = flag.Bool("fuzz", false, "run a differential conformance fuzz campaign instead of the benchmark")
		fuzzSeqs   = flag.Int("fuzz-seqs", 1000, "fuzz: sequences to generate and dual-execute")
		fuzzSeed   = flag.Int64("fuzz-seed", 1, "fuzz: campaign seed (same seed regenerates the same stream)")
		fuzzOut    = flag.String("fuzz-promote", "", "fuzz: write minimized reproducers into this directory")
		fuzzBench  = flag.String("fuzz-bench-out", "", "fuzz: write campaign throughput metrics as JSON")
		simInsns   = flag.Int64("sim-insns", 100_000, "sampled mode: simulated instructions per period")
		natInsns   = flag.Int64("native-insns", 900_000, "sampled mode: native instructions per period")
		statsOut   = flag.String("stats-out", "", "write snapshot series as JSON for ptlstats")
		out        = flag.String("o", "", "write report to file instead of stdout")
		evlogOut   = flag.String("evlog", "", "record the pipeline event-log ring and write it as JSONL (render with ptlstats -pipeline)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context: the run loops stop at the
	// next instruction boundary and, where checkpointing is configured, a
	// final checkpoint is written before a clean exit. Once the context
	// is cancelled the handler is released, so a second signal kills the
	// process the ordinary way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() { <-ctx.Done(); stopSignals() }()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	cfg := experiments.Scale(*scale)
	if *nfiles > 0 {
		cfg.Corpus.NFiles = *nfiles
	}
	if *filesize > 0 {
		cfg.Corpus.FileSize = *filesize
	}
	if *change >= 0 {
		cfg.Corpus.ChangeFraction = *change
	}
	if *timer > 0 {
		cfg.TimerPeriod = *timer
	}
	maxSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "maxcycles" {
			maxSet = true
		}
	})
	cfg.MaxCycles = cycleBudget(cfg.MaxCycles, *maxCycles, maxSet)

	if *experiment != "" {
		runExperiment(w, *experiment, cfg)
		return
	}

	if *fuzzF {
		runFuzz(ctx, w, conformance.CampaignConfig{
			Seqs: *fuzzSeqs, Seed: *fuzzSeed, PromoteDir: *fuzzOut,
		}, *inject, *journalOut, *fuzzBench)
		return
	}

	// Plain benchmark run (or checkpoint resume).
	mcfg := core.Config{Core: experiments.CoreConfig(*coreKind), NativeCPI: 1,
		SnapshotCycles: cfg.SnapshotCycles, ThreadsPerCore: 1,
		WatchdogCycles: *watchdog,
		SelfCheck: selfcheck.Config{Oracle: *selfcheckF, Interval: *scInterval,
			Audit: *audit, AuditEvery: *auditEvery}}
	if err := mcfg.Validate(); err != nil {
		fatal(err)
	}
	var m *core.Machine
	if *restoreIn != "" {
		ckimg, err := snapshot.ReadFile(*restoreIn)
		if err != nil {
			fatal(err)
		}
		if m, err = snapshot.Restore(ckimg, mcfg); err != nil {
			fatal(err)
		}
	} else {
		var err error
		if m, err = experiments.Boot(cfg, mcfg, core.ModeNative); err != nil {
			fatal(err)
		}
	}
	tree := m.Tree

	if *inject != "" {
		specs, err := faultinject.ParseList(*inject)
		if err != nil {
			fatal(err)
		}
		faultinject.New(specs...).Attach(m)
	}

	var elog *evlog.Log
	if *evlogOut != "" {
		elog = evlog.New(evlog.DefaultSize)
		m.SetEventLog(elog)
	}
	// writeEvlog lands the recorded ring as JSONL — on every exit path,
	// because the ring's whole point is to survive the failing runs.
	writeEvlog := func() {
		if elog == nil {
			return
		}
		f, ferr := os.Create(*evlogOut)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "ptlsim: evlog:", ferr)
			return
		}
		defer f.Close()
		if werr := evlog.WriteJSON(f, elog.Events()); werr != nil {
			fmt.Fprintln(os.Stderr, "ptlsim: evlog:", werr)
			return
		}
		fmt.Fprintf(os.Stderr, "ptlsim: evlog: %d event(s) written to %s\n", elog.Len(), *evlogOut)
	}

	var err error
	var sup *supervisor.Supervisor
	switch *mode {
	case "native", "sim":
		if *mode == "sim" {
			m.SwitchMode(core.ModeSim)
		}
		switch {
		case *supervise:
			interval := *ckptCycles
			if interval == 0 {
				interval = 10_000_000
			}
			var journal *supervisor.Journal
			if *journalOut != "" {
				jf, jerr := os.OpenFile(*journalOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if jerr != nil {
					fatal(jerr)
				}
				defer jf.Close()
				journal = supervisor.NewJournal(jf)
			}
			sup, err = supervisor.New(m, supervisor.Config{
				Interval: interval, MaxCycles: cfg.MaxCycles,
				Dir: *ckptDir, Keep: *keepCkpts,
				MaxRetries: *maxRetries, DegradeAfter: *degradeAft,
				Journal: journal, Triage: *triage,
			})
			if err != nil {
				fatal(err)
			}
			err = sup.Run(ctx)
			m = sup.M
		case *ckptCycles > 0:
			r := snapshot.NewRunner(m, *ckptCycles)
			if *ckptOut != "" {
				prefix := *ckptOut
				r.OnCheckpoint = func(k int, img *snapshot.Image) error {
					return img.WriteFile(fmt.Sprintf("%s.%d.ckpt", prefix, k))
				}
			}
			err = r.RunCtx(ctx, cfg.MaxCycles)
			m = r.M // the runner swaps machines at each checkpoint
		default:
			err = m.RunCtx(ctx, cfg.MaxCycles)
		}
	case "sampled":
		if *supervise {
			fatal(fmt.Errorf("-supervise supports -mode native|sim only"))
		}
		err = cosim.RunSampled(m, cosim.SampleConfig{SimInsns: *simInsns, NativeInsns: *natInsns}, cfg.MaxCycles)
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
	if err != nil {
		writeEvlog()
		switch {
		case errors.Is(err, supervisor.ErrInterrupted):
			// The supervisor already wrote the final checkpoint.
			fmt.Fprintln(os.Stderr, "ptlsim:", err)
			os.Exit(0)
		case errors.Is(err, context.Canceled):
			exitInterrupted(m, *ckptOut, err)
		}
		if se, ok := simerr.As(err); ok {
			fmt.Fprintln(os.Stderr, "ptlsim:", se.Detail())
			os.Exit(1)
		}
		fatal(err)
	}
	writeEvlog()
	if sup != nil {
		res := sup.Result()
		fmt.Fprintf(os.Stderr, "ptlsim: supervised run complete: attempts=%d retries=%d degraded-windows=%d last-checkpoint=%s\n",
			res.Attempts, res.Retries, res.DegradedWindows, res.FinalSlot)
	}

	fmt.Fprintf(w, "console output:\n%s\n", m.Dom.Console())
	fmt.Fprintf(w, "cycles: %d  instructions: %d\n", m.Cycle, m.Insns())
	if *statsOut != "" {
		if err := writeStats(*statsOut, m, tree); err != nil {
			fatal(err)
		}
	}
}

// cycleBudget is a run's cycle budget: -maxcycles when given
// explicitly (0 = unlimited), otherwise the scale's own — a scale's 0
// (paper) is unlimited, not unset.
func cycleBudget(scale, flagValue uint64, flagSet bool) uint64 {
	if flagSet {
		return flagValue
	}
	return scale
}

// runFuzz drives a conformance fuzz campaign: generate sequences, run
// them through both engines under the commit oracle, shrink and
// promote findings. Exits nonzero when the campaign found anything.
func runFuzz(ctx context.Context, w *os.File, cc conformance.CampaignConfig,
	inject, journal, benchOut string) {
	cc, err := conformance.NewCampaign(cc, 0, inject)
	if err != nil {
		fatal(err)
	}
	if journal != "" {
		jf, err := os.OpenFile(journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer jf.Close()
		cc.Journal = supervisor.NewJournal(jf)
	}
	res, err := conformance.RunCampaign(ctx, cc)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "fuzz: %d sequences in %.1fs (%.1f seqs/sec), %d findings, shrink %dms\n",
		res.Seqs, res.ElapsedSec, res.SeqsPerSec, len(res.Findings), res.ShrinkMs)
	for _, f := range res.Findings {
		fmt.Fprintf(w, "  [%s] %s: %s\n", f.Finding.Kind, f.Case.Name, f.Finding.Diag)
	}
	for _, p := range res.Promoted {
		fmt.Fprintf(w, "  promoted %s\n", p)
	}
	if benchOut != "" {
		bench := map[string]any{
			"seqs": res.Seqs, "elapsed_sec": res.ElapsedSec,
			"seqs_per_sec": res.SeqsPerSec, "shrink_ms": res.ShrinkMs,
			"findings": len(res.Findings),
		}
		data, merr := json.MarshalIndent(bench, "", " ")
		if merr != nil {
			fatal(merr)
		}
		if werr := os.WriteFile(benchOut, data, 0o644); werr != nil {
			fatal(werr)
		}
	}
	if res.Interrupted {
		fmt.Fprintln(os.Stderr, "ptlsim: fuzz campaign interrupted")
		os.Exit(130)
	}
	if len(res.Findings) > 0 {
		os.Exit(1)
	}
}

func runExperiment(w *os.File, name string, cfg experiments.Config) {
	res, err := experiments.RunTable1(cfg)
	if err != nil {
		fatal(err)
	}
	switch name {
	case "table1":
		fmt.Fprintf(w, "Table 1: PTLsim vs reference K8 counter model\n")
		fmt.Fprintf(w, "(benchmark: %s)\n\n", res.SimConsole)
		res.WriteTable(w)
	case "figure2":
		fmt.Fprintf(w, "Figure 2: cycles per mode per snapshot interval\n")
		if err := res.Series.WriteSeries(w, experiments.Figure2Columns()...); err != nil {
			fatal(err)
		}
		fmt.Fprintf(w, "\noverall: user %.1f%%  kernel %.1f%%  idle %.1f%%\n",
			res.UserPct, res.KernelPct, res.IdlePct)
		fmt.Fprintf(w, "userspace-only pitfall (§6.4): %.1f%% of cycles unaccounted (kernel+idle), %.1f%% of instructions in the kernel\n",
			res.KernelPct+res.IdlePct, res.KernelInsnPct)
	case "figure3":
		fmt.Fprintf(w, "Figure 3: microarchitectural rates per snapshot interval\n")
		if err := res.Series.WriteSeries(w, experiments.Figure3Columns()...); err != nil {
			fatal(err)
		}
	case "throughput":
		fmt.Fprintf(w, "simulated %d cycles in %v: %.0f cycles/second\n",
			res.SimCycles, res.SimWall, res.Throughput)
	default:
		fatal(fmt.Errorf("unknown experiment %q", name))
	}
}

// statsFile is the JSON schema consumed by cmd/ptlstats.
type statsFile struct {
	Cycles    uint64           `json:"cycles"`
	Final     map[string]int64 `json:"final"`
	Interval  uint64           `json:"interval"`
	Snapshots []statsSnapshot  `json:"snapshots"`
}

type statsSnapshot struct {
	Cycle  uint64           `json:"cycle"`
	Values map[string]int64 `json:"values"`
}

func writeStats(path string, m *core.Machine, tree *stats.Tree) error {
	series := m.Series()
	sf := statsFile{
		Cycles:   m.Cycle,
		Final:    tree.Snapshot(m.Cycle).Values,
		Interval: series.Interval,
	}
	for _, s := range series.Snapshots {
		sf.Snapshots = append(sf.Snapshots, statsSnapshot{Cycle: s.Cycle, Values: s.Values})
	}
	data, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// exitInterrupted handles SIGINT/SIGTERM on unsupervised runs. The run
// loops guarantee the machine stopped at an instruction boundary, so
// when a checkpoint prefix is configured the state is captured to
// <prefix>.final.ckpt — resumable with -restore — and the exit is
// clean; without one the process exits with the conventional 130.
func exitInterrupted(m *core.Machine, ckptOut string, cause error) {
	fmt.Fprintln(os.Stderr, "ptlsim:", cause)
	if ckptOut != "" {
		path := ckptOut + ".final.ckpt"
		if err := snapshot.Capture(m).WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "ptlsim: final checkpoint failed:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "ptlsim: final checkpoint written; resume with -restore %s\n", path)
		os.Exit(0)
	}
	os.Exit(130)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptlsim:", err)
	os.Exit(1)
}
