package jobd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"ptlsim/internal/conformance"
	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/simerr"
	"ptlsim/internal/snapshot"
	"ptlsim/internal/supervisor"
)

// Job-directory file names shared by the daemon and the worker. The
// directory is the whole worker protocol: the daemon writes spec.json
// and spawns the worker on the directory; the worker heartbeats into
// heartbeatFile, checkpoints into ckptSubdir, journals into
// journalFile, and reports through resultFile or failureFile plus its
// exit code.
const (
	specFile      = "spec.json"
	resultFile    = "result.json"
	failureFile   = "failure.json"
	heartbeatFile = "heartbeat"
	journalFile   = "worker.jsonl"
	logFile       = "worker.log"
	ckptSubdir    = "ckpt"
)

// heartbeatEvery is the worker's heartbeat cadence.
const heartbeatEvery = 250 * time.Millisecond

// Worker exit codes (beyond the conventional 0).
const (
	// ExitFailure: a structured simulation failure; failureFile has the
	// classification.
	ExitFailure = 3
	// ExitSetup: the worker could not even start the job (bad spec,
	// unreadable directory) — never retryable.
	ExitSetup = 2
)

// WorkerMain is the hidden worker mode of the serving binary: execute
// the job described by <dir>/spec.json in this process, under the run
// supervisor, with checkpoints rotated into <dir>/ckpt. If the
// rotation already holds an intact slot — this is a respawn after the
// previous worker was killed — the newest one is restored first, so
// the re-run resumes instead of restarting; with none it boots the
// spec again. Either way (by the snapshot Runner's determinism-by-
// construction property) it finishes with guest output bit-identical
// to an unkilled run.
//
// The returned value is the process exit code; errw receives human
// diagnostics (the daemon redirects it to <dir>/worker.log).
func WorkerMain(dir string, errw io.Writer) int {
	spec, err := readJSON[Spec](filepath.Join(dir, specFile))
	if err != nil {
		fmt.Fprintln(errw, "worker:", err)
		return ExitSetup
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(errw, "worker:", err)
		return ExitSetup
	}

	// SIGTERM (daemon drain timeout) cancels the run context; the
	// supervisor answers with a final checkpoint and ErrInterrupted.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stopSignals()

	// Heartbeat: touch <dir>/heartbeat every heartbeatEvery until the
	// run ends, so the daemon can tell "slow" from "wedged" by the
	// file's mtime — the file has no content. It is created before the
	// run starts: a worker that never heartbeats is already suspect.
	hbPath := filepath.Join(dir, heartbeatFile)
	if err := os.WriteFile(hbPath, nil, 0o644); err != nil {
		fmt.Fprintln(errw, "worker: heartbeat:", err)
		return ExitSetup
	}
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(heartbeatEvery)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case now := <-t.C:
				os.Chtimes(hbPath, now, now)
			}
		}
	}()

	jf, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintln(errw, "worker:", err)
		return ExitSetup
	}
	defer jf.Close()

	var res *Result
	var runErr error
	if spec.Fuzz != nil {
		res, runErr = runFuzzJob(ctx, spec, dir, jf)
	} else {
		res, runErr = runJob(ctx, spec, filepath.Join(dir, ckptSubdir), jf)
	}
	switch {
	case runErr == nil:
		if err := writeJSON(filepath.Join(dir, resultFile), res); err != nil {
			fmt.Fprintln(errw, "worker:", err)
			return ExitSetup
		}
		return 0
	case errors.Is(runErr, supervisor.ErrInterrupted):
		// Drain: progress is checkpointed; a future re-admission of the
		// job resumes where this worker stopped.
		writeFailure(dir, Failure{Kind: "interrupted", Retryable: true,
			Message: "worker interrupted (drain): " + runErr.Error()})
		fmt.Fprintln(errw, "worker:", runErr)
		return ExitFailure
	default:
		f := Failure{Kind: "error", Message: runErr.Error(), Retryable: simerr.Retryable(runErr)}
		if se, ok := simerr.As(runErr); ok {
			f.Kind = string(se.Kind)
			f.Cycle = se.Cycle
			f.RIP = se.RIP
			fmt.Fprintln(errw, "worker:", se.Detail())
		} else {
			fmt.Fprintln(errw, "worker:", runErr)
		}
		writeFailure(dir, f)
		return ExitFailure
	}
}

// runJob executes the spec under supervision, resuming from the rotated
// checkpoint directory when it already holds an intact slot.
func runJob(ctx context.Context, spec *Spec, ckptDir string, journal io.Writer) (*Result, error) {
	cfg := spec.experimentConfig()
	mcfg := spec.machineConfig(cfg.SnapshotCycles)
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}

	interval := spec.CheckpointCycles
	if interval == 0 {
		interval = 10_000_000
	}

	// supervisor.New opens the rotation; a view of the directory is
	// enough to look for slots a killed attempt left behind. With none
	// usable the job starts over from its spec: the spec is the genesis
	// the supervisor holds in memory, so the re-run is the same run.
	// Each slot found unusable is journalled before it is removed, so
	// the journal says why a respawn did not resume. The supervisor
	// journals through the same Journal, so all of a worker's entries
	// count from one run start; as there, a failed journal write does
	// not stop the job.
	rotation := supervisor.Store{Dir: ckptDir}
	jl := supervisor.NewJournal(journal)
	var m *core.Machine
	if img, slot, err := rotation.LoadLatest(func(bad string, lerr error) {
		jl.Append(supervisor.Entry{Event: supervisor.EventDiscardSlot, Slot: bad, Message: lerr.Error()})
	}); err == nil {
		if m, err = snapshot.Restore(img, mcfg); err != nil {
			return nil, fmt.Errorf("jobd: resuming %s: %w", slot, err)
		}
	} else {
		mode := core.ModeSim
		if spec.Mode == "native" {
			mode = core.ModeNative
		}
		var err error
		if m, err = experiments.Boot(cfg, mcfg, mode); err != nil {
			return nil, err
		}
	}
	if spec.Inject != "" {
		specs, err := faultinject.ParseList(spec.Inject)
		if err != nil {
			return nil, err
		}
		faultinject.New(specs...).Attach(m)
	}

	sup, err := supervisor.New(m, supervisor.Config{
		Interval:   interval,
		MaxCycles:  cfg.MaxCycles,
		Dir:        ckptDir,
		Keep:       max(spec.MaxRetries, 3),
		MaxRetries: spec.MaxRetries, // 0 = the supervisor's default
		Journal:    jl,
	})
	if err != nil {
		return nil, err
	}
	if err := sup.Run(ctx); err != nil {
		return nil, err
	}
	m = sup.M
	sres := sup.Result()
	console := m.Dom.Console()
	return &Result{
		Cycles: m.Cycle, Insns: m.Insns(),
		Console: console, ConsoleFNV: consoleFNV(console),
		Attempts: sres.Attempts, Retries: sres.Retries,
		DegradedWindows: sres.DegradedWindows, FinalSlot: sres.FinalSlot,
	}, nil
}

// runFuzzJob executes a conformance fuzz campaign. It is not
// checkpointed — the campaign is deterministic in its seed, so a
// respawned worker just reruns it. Minimized reproducers land in
// <dir>/findings; the campaign event trail goes to the worker journal
// in the shared supervisor entry format.
func runFuzzJob(ctx context.Context, spec *Spec, dir string, journal io.Writer) (*Result, error) {
	fs := spec.Fuzz
	cc, err := conformance.NewCampaign(conformance.CampaignConfig{
		Run:  conformance.Config{MaxInsns: fs.MaxInsns},
		Seqs: fs.Seqs, Seed: fs.Seed, MaxUnits: fs.MaxUnits,
		Journal:    supervisor.NewJournal(journal),
		PromoteDir: filepath.Join(dir, "findings"),
	}, fs.TimingSeeds, spec.Inject)
	if err != nil {
		return nil, err
	}
	cres, err := conformance.RunCampaign(ctx, cc)
	if err != nil {
		return nil, err
	}
	if cres.Interrupted {
		return nil, supervisor.ErrInterrupted
	}
	fr := &FuzzResult{
		Seqs: cres.Seqs, SeqsPerSec: cres.SeqsPerSec, ShrinkMs: cres.ShrinkMs,
		Findings: len(cres.Findings), Promoted: cres.Promoted,
	}
	for _, f := range cres.Findings {
		fr.Kinds = append(fr.Kinds, f.Finding.Kind)
	}
	return &Result{Fuzz: fr}, nil
}

// readJSON decodes one of the job directory's JSON files (spec,
// result, failure).
func readJSON[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("jobd: %s: %w", path, err)
	}
	return v, nil
}

// writeJSON writes v to path atomically, so the daemon never reads a
// torn result file from a worker killed mid-write.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return atomicWrite(path, data, false)
}

func writeFailure(dir string, f Failure) {
	writeJSON(filepath.Join(dir, failureFile), f)
}
