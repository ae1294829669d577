// Command ptlmon is the domain monitor (the PTLmon of the paper's
// Figure 1): it builds a guest domain, boots it, relays its console,
// and manages the interrupt/DMA trace facilities — recording a run's
// device event stream to a file, or replaying a previously recorded
// trace deterministically into a fresh domain (paper §4.2).
//
// Examples:
//
//	ptlmon                       # boot the rsync benchmark, show console
//	ptlmon -record trace.bin     # record device events during the run
//	ptlmon -replay trace.bin     # re-run with injected trace events
//	ptlmon -journal run.jsonl    # summarize a supervised run's journal
//	ptlmon -inspect dir-or-ckpt  # triage checkpoint headers without restoring
//	ptlmon -inspect ptlserve-data # a ptlserve data directory: its jobs, from the store
//	ptlmon -addr URL             # list a remote ptlserve daemon's jobs
//	ptlmon -addr URL -job 0003   # show one remote job's status
//	ptlmon -addr URL -version    # remote daemon build + schema identity
package main

import (
	"flag"
	"fmt"
	"os"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/guest"
	"ptlsim/internal/trace"
)

func main() {
	var (
		record  = flag.String("record", "", "record device events to this file")
		replay  = flag.String("replay", "", "inject device events from this file")
		nfiles  = flag.Int("nfiles", 4, "corpus file count")
		fsize   = flag.Int("filesize", 8192, "corpus file size")
		mode    = flag.String("mode", "native", "execution engine: native | sim")
		maxCyc  = flag.Uint64("maxcycles", 0, "cycle budget (0 = unlimited)")
		journal = flag.String("journal", "", "summarize a supervisor run journal (JSONL) and exit")
		tailN   = flag.Int("tail", 0, "with -journal: also print the last N events")
		inspect = flag.String("inspect", "", "print a checkpoint file's header (or every *.ckpt in a directory; or, for a ptlserve data directory, its jobs) without restoring, and exit")
		addr    = flag.String("addr", "", "ptlserve base URL: list its jobs (or use -job/-version) and exit")
		jobID   = flag.String("job", "", "with -addr: show this job's status")
		phase   = flag.String("phase", "", "with -addr: only list jobs in this phase (queued|running|done|failed)")
		limit   = flag.Int("limit", 0, "with -addr: list at most N jobs (0 = all)")
		version = flag.Bool("version", false, "with -addr: print the daemon's build and schema identity")
	)
	flag.Parse()

	if *addr != "" {
		if err := remoteMain(os.Stdout, *addr, *jobID, *phase, *limit, *version); err != nil {
			fatal(err)
		}
		return
	}
	if *journal != "" {
		if err := reportJournal(os.Stdout, *journal, *tailN); err != nil {
			fatal(err)
		}
		return
	}
	if *inspect != "" {
		if err := inspectPath(os.Stdout, *inspect); err != nil {
			fatal(err)
		}
		return
	}

	engine := core.ModeNative
	if *mode == "sim" {
		engine = core.ModeSim
	}
	cs := guest.CorpusSpec{NFiles: *nfiles, FileSize: *fsize, Seed: 20070425, ChangeFraction: 0.25}
	m, err := experiments.Boot(experiments.Config{Corpus: cs}, core.DefaultConfig(), engine)
	if err != nil {
		fatal(err)
	}
	dom := m.Dom

	var rec *trace.Recorder
	if *record != "" {
		rec = &trace.Recorder{}
		dom.Sink = rec
	}
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal(err)
		}
		tr, err := trace.Read(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		dom.Source = trace.NewInjector(tr)
		fmt.Printf("ptlmon: replaying %d recorded device events\n", len(tr.Events))
	}

	fmt.Printf("ptlmon: booting domain (%d vcpus, %d machine pages)\n",
		len(dom.VCPUs), dom.M.PM.NumPages())
	if err := m.Run(*maxCyc); err != nil {
		fatal(err)
	}
	fmt.Printf("--- console ---\n%s---------------\n", dom.Console())
	fmt.Printf("ptlmon: domain shut down (reason %d) at cycle %d after %d instructions\n",
		dom.ShutdownReason, m.Cycle, m.Insns())

	if rec != nil {
		tr := rec.Trace()
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		if err := tr.Write(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("ptlmon: recorded %d device events to %s\n", len(tr.Events), *record)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptlmon:", err)
	os.Exit(1)
}
