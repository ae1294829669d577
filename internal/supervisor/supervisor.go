// Package supervisor is the resilient run manager: it wraps
// core.Machine execution in an attempt loop built from PR 1's
// guardrail primitives so a multi-billion-cycle run survives the
// failures that would otherwise kill it.
//
// The loop drives the machine through the checkpointing Runner,
// persisting every boundary image into a keep-N rotation of
// integrity-checked files (internal/snapshot's atomic, CRC-verified
// format). When an attempt dies with a retryable SimError — a commit
// livelock or a recovered pipeline panic — the supervisor backs off
// exponentially, restores the newest intact rotation slot (falling
// back across corrupted ones to the run's in-memory starting image),
// and retries within a bounded budget.
// When the out-of-order core keeps faulting inside the same window,
// the supervisor degrades gracefully: it re-executes just that window
// on the sequential reference core to make forward progress, records
// the degraded interval in the run journal, and switches back to the
// cycle-accurate core at the next boundary. Context cancellation
// (SIGINT/SIGTERM in cmd/ptlsim) lands as a final checkpoint plus a
// clean exit instead of lost work.
//
// Because a transient fault is cured by replaying from the previous
// boundary image — the exact image the uninterrupted run swapped in at
// that boundary — a recovered run finishes with bit-identical
// architectural state, cycle count, console output and statistics to a
// clean run under the same supervision cadence (the determinism-by-
// construction property of snapshot.Runner, extended across failures).
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/selfcheck"
	"ptlsim/internal/simerr"
	"ptlsim/internal/snapshot"
)

// Config configures a Supervisor.
type Config struct {
	// Interval is the checkpoint cadence in cycles (required). It is
	// also the width of a degraded window.
	Interval uint64
	// MaxCycles bounds the whole run (0 = unlimited); exhausting it is
	// a fatal cycle-budget SimError, never retried.
	MaxCycles uint64
	// Dir is the checkpoint rotation directory (required).
	Dir string
	// Keep is the rotation depth (default 3).
	Keep int
	// MaxRetries is the total restore-and-retry budget for the run
	// (default 5). Degraded windows do not consume it.
	MaxRetries int
	// DegradeAfter is how many consecutive failed attempts from the
	// same restore point trigger sequential-core degradation for that
	// window (default 2; negative disables degradation entirely).
	DegradeAfter int
	// BackoffBase is the delay before the first retry at a restore
	// point; it doubles per consecutive failure there, capped at
	// BackoffMax. Defaults: 100ms base, 10s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Journal receives the JSONL run journal (nil = no journal). A
	// caller that journals before the run (a respawned worker's
	// discarded slots) passes the same Journal, so every entry counts
	// from one run start.
	Journal *Journal
	// Triage enables the automatic divergence search when an attempt
	// dies with a self-check failure (a divergence or invariant
	// SimError): the newest intact rotation slot seeds a checkpointed
	// binary search (cosim.FirstDivergenceFromImage) that isolates the
	// first committed instruction at which the cycle-accurate core's
	// architectural state departs from the reference engine, and the
	// result lands in the journal as a triage entry. The search runs
	// with self-checking instrumentation stripped — re-raising the
	// oracle's own error inside a probe would abort the search that is
	// trying to localize it.
	Triage bool
	// TriageInterval is the checkpoint spacing (in committed
	// instructions) of the triage search (default 64).
	TriageInterval int64
	// Sleep is the backoff sleep (test seam; default time.Sleep).
	Sleep func(time.Duration)
}

func (cfg *Config) applyDefaults() {
	if cfg.Keep <= 0 {
		cfg.Keep = 3
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	if cfg.DegradeAfter < 0 {
		cfg.DegradeAfter = 0
	} else if cfg.DegradeAfter == 0 {
		cfg.DegradeAfter = 2
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 10 * time.Second
	}
	if cfg.TriageInterval <= 0 {
		cfg.TriageInterval = 64
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
}

// Result summarizes a supervised run.
type Result struct {
	// Attempts is the number of run attempts started (≥ 1).
	Attempts int
	// Retries is how much of the retry budget was consumed.
	Retries int
	// DegradedWindows counts windows re-executed on the sequential
	// reference core.
	DegradedWindows int
	// FinalSlot is the last checkpoint slot written ("" if none was).
	FinalSlot string
}

// ErrInterrupted wraps context cancellation after the final checkpoint
// was written; errors.Is(err, ErrInterrupted) distinguishes a clean
// checkpoint-and-exit from a real failure.
var ErrInterrupted = errors.New("supervisor: run interrupted")

// Supervisor manages one machine's run.
type Supervisor struct {
	// M is the current machine instance; after Run returns it is the
	// instance that finished (or was last checkpointed).
	M *core.Machine

	cfg     Config
	store   *Store
	journal *Journal
	res     Result

	// lastRestore/failsAtPoint track consecutive failures from the
	// same restore point — the degradation trigger. Crossing any new
	// checkpoint boundary resets the streak (forward progress).
	lastRestore  uint64
	failsAtPoint int

	// genesis is the image Run started from, this run's oldest restore
	// point; slots numbered above genesisSeq are newer. It is dropped
	// once Keep of them are on disk.
	genesis    *snapshot.Image
	genesisSeq int
}

// New builds a supervisor around a configured machine (mode switched,
// instrumentation attached). The checkpoint directory is created
// immediately so setup errors surface before any cycles are spent.
func New(m *core.Machine, cfg Config) (*Supervisor, error) {
	if cfg.Interval == 0 {
		return nil, fmt.Errorf("supervisor: Interval must be > 0")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("supervisor: Dir must be set")
	}
	cfg.applyDefaults()
	store, err := OpenStore(cfg.Dir, cfg.Keep)
	if err != nil {
		return nil, err
	}
	return &Supervisor{
		M:       m,
		cfg:     cfg,
		store:   store,
		journal: cfg.Journal,
	}, nil
}

// Result returns the run summary (valid after Run).
func (s *Supervisor) Result() Result { return s.res }

// Run executes the machine to completion under supervision. It returns
// nil when the domain shuts down normally, an error wrapping
// ErrInterrupted (and the ctx cause) after a cancellation checkpoint,
// and the underlying failure when the run is beyond saving — a
// non-retryable SimError, an exhausted retry budget, or a failure on
// the degraded path.
func (s *Supervisor) Run(ctx context.Context) error {
	// Genesis: a failure inside the very first window needs a restore
	// point too, kept in memory. The run then continues on a machine
	// rebuilt from that image — the same round trip every Runner
	// boundary performs — so the first window is executed exactly as a
	// recovery from it, or a respawned worker booting the same spec,
	// replays it. Running it on the live machine instead leaks
	// pre-capture state the image deliberately excludes (a pending
	// mode-switch refill, for one) into the cycle count.
	img, err := s.captureAndSwap()
	if err != nil {
		return err
	}
	s.genesis, s.genesisSeq = img, s.store.seq

	for {
		s.res.Attempts++
		s.journal.Append(Entry{Event: EventRunStart, Attempt: s.res.Attempts,
			Cycle: s.M.Cycle, Insns: s.M.Insns()})

		r := snapshot.NewRunner(s.M, s.cfg.Interval)
		r.OnCheckpoint = func(_ int, img *snapshot.Image) error {
			// Crossing a boundary is forward progress: the failure
			// streak (and with it the backoff ladder) starts over.
			s.failsAtPoint = 0
			return s.save(img)
		}
		err := r.RunCtx(ctx, s.cfg.MaxCycles)
		s.M = r.M

		switch {
		case err == nil:
			s.journal.Append(Entry{Event: EventComplete, Attempt: s.res.Attempts,
				Cycle: s.M.Cycle, Insns: s.M.Insns()})
			return nil
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return s.interrupt(err)
		}

		se, _ := simerr.As(err)
		fe := Entry{Event: EventFailure, Attempt: s.res.Attempts,
			Cycle: s.M.Cycle, Message: err.Error(),
			Retryable: simerr.Retryable(err)}
		if se != nil {
			fe.Kind = string(se.Kind)
			fe.RIP = se.RIP
			fe.Commit = se.Commit
			fe.Diff = se.Diff
			fe.EventTail = se.EventTail
		}
		s.journal.Append(fe)
		if !simerr.Retryable(err) {
			// Self-check failures are evidence of wrong execution, not a
			// transient fault: before giving up, localize the bug.
			if s.cfg.Triage && se != nil &&
				(se.Kind == simerr.KindDivergence || se.Kind == simerr.KindInvariant) {
				s.triage()
			}
			s.journal.Append(Entry{Event: EventGiveUp, Attempt: s.res.Attempts,
				Cycle: s.M.Cycle, Message: "failure is not retryable"})
			return err
		}

		if s.res.Retries >= s.cfg.MaxRetries {
			s.journal.Append(Entry{Event: EventGiveUp, Attempt: s.res.Attempts,
				Cycle: s.M.Cycle, Message: fmt.Sprintf("retry budget %d exhausted", s.cfg.MaxRetries)})
			return fmt.Errorf("supervisor: retry budget %d exhausted: %w", s.cfg.MaxRetries, err)
		}
		s.res.Retries++

		if err := s.restore(ctx); err != nil {
			return err
		}
		if s.cfg.DegradeAfter > 0 && s.failsAtPoint >= s.cfg.DegradeAfter {
			if err := s.degradeWindow(ctx); err != nil {
				return err
			}
			s.failsAtPoint = 0
		}
	}
}

// restore backs off, then swaps in a machine rebuilt from the newest
// usable restore point, carrying over the external attachments (trace
// sink/source, step hook) the image deliberately excludes.
func (s *Supervisor) restore(ctx context.Context) error {
	// A cancellation racing the failure wins: checkpoint and exit
	// instead of sleeping into a retry nobody wants.
	if cerr := ctx.Err(); cerr != nil {
		return s.interrupt(cerr)
	}
	// Exponential backoff on the consecutive-failure streak; the first
	// failure at a point waits BackoffBase.
	d := s.cfg.BackoffBase << uint(s.failsAtPoint)
	if d > s.cfg.BackoffMax || d <= 0 {
		d = s.cfg.BackoffMax
	}
	s.cfg.Sleep(d)

	img, slot, err := s.restorePoint()
	if err != nil {
		return err
	}
	fresh, err := snapshot.Swap(s.M, img)
	if err != nil {
		return fmt.Errorf("supervisor: restoring the image of cycle %d: %w", img.Cycle, err)
	}
	s.M = fresh

	if img.Cycle == s.lastRestore {
		s.failsAtPoint++
	} else {
		s.lastRestore = img.Cycle
		s.failsAtPoint = 1
	}
	s.journal.Append(Entry{Event: EventRestore, Attempt: s.res.Attempts,
		Cycle: img.Cycle, Slot: slot, BackoffMs: d.Milliseconds()})
	return nil
}

// degradeWindow makes forward progress through a window the
// out-of-order core cannot survive: it re-executes exactly one
// checkpoint interval on the sequential reference core (native mode —
// functionally identical, no timing model), journals the degraded
// interval, switches back, and checkpoints the boundary so later
// failures restore past the poisoned window. Timing fidelity is lost
// for the window (cycle counts advance at NativeCPI); architectural
// correctness is not.
func (s *Supervisor) degradeWindow(ctx context.Context) error {
	m := s.M
	wasSim := m.Mode() == core.ModeSim
	from := m.Cycle
	target := from + s.cfg.Interval
	s.journal.Append(Entry{Event: EventDegradeOn, Attempt: s.res.Attempts,
		FromCycle: from, ToCycle: target})
	if wasSim {
		m.SwitchMode(core.ModeNative)
	}
	err := m.RunUntilCycleCtx(ctx, target)
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return s.interrupt(err)
	case err != nil:
		// The reference core is the fallback of last resort; when even
		// it cannot get through the window, the run is beyond saving.
		s.journal.Append(Entry{Event: EventFailure, Attempt: s.res.Attempts,
			Cycle: m.Cycle, Message: "degraded window failed: " + err.Error()})
		return fmt.Errorf("supervisor: degraded window [%d,%d) failed on sequential core: %w",
			from, target, err)
	}
	if wasSim && !m.Dom.ShutdownReq {
		m.SwitchMode(core.ModeSim)
	}
	s.res.DegradedWindows++
	s.journal.Append(Entry{Event: EventDegradeOff, Attempt: s.res.Attempts,
		FromCycle: from, ToCycle: m.Cycle, Insns: m.Insns()})
	if m.Dom.ShutdownReq {
		return nil
	}
	// Boundary checkpoint + swap, mirroring Runner.checkpoint: the
	// continued run passes through the same restore operation a later
	// resume from this slot would.
	img, err := s.captureAndSwap()
	if err != nil {
		return err
	}
	return s.save(img)
}

// captureAndSwap is Runner.checkpoint's capture → restore round trip
// at the boundaries the supervisor takes itself: what the image
// excludes, the continued run excludes too, as a resume from it would.
func (s *Supervisor) captureAndSwap() (*snapshot.Image, error) {
	img := snapshot.Capture(s.M)
	fresh, err := snapshot.Swap(s.M, img)
	if err != nil {
		return nil, err
	}
	s.M = fresh
	return img, nil
}

// restorePoint returns the newest intact rotation slot and its path,
// or the genesis and "" when no slot this run wrote is usable: slots
// already in the directory (a killed worker's, an earlier run's) are
// older than the genesis.
func (s *Supervisor) restorePoint() (*snapshot.Image, string, error) {
	img, slot, err := s.store.LoadLatest(func(bad string, lerr error) {
		s.journal.Append(Entry{Event: EventDiscardSlot, Attempt: s.res.Attempts,
			Slot: bad, Message: lerr.Error()})
	})
	if n, _ := slotSeq(slot); s.genesis != nil && n <= s.genesisSeq {
		return s.genesis, "", nil
	}
	return img, slot, err
}

// triage runs the checkpoint-seeded divergence search after a
// self-check failure: restore the newest intact rotation slot, strip
// the self-checking instrumentation from the machine configuration
// (the stripped config restores the slot thanks to ConfigHash's
// exclusion), and binary search the window between the slot and the
// failure point for the first committed instruction where the
// cycle-accurate and reference engines disagree. The result — or the
// search's own failure, which is itself diagnostic — is journaled;
// triage never changes Run's outcome.
func (s *Supervisor) triage() {
	img, slot, err := s.restorePoint()
	if err != nil {
		s.journal.Append(Entry{Event: EventTriage, Attempt: s.res.Attempts,
			Message: "divergence search aborted: no usable checkpoint: " + err.Error()})
		return
	}
	cfg := s.M.Config()
	cfg.SelfCheck = selfcheck.Config{}
	max := s.M.Insns()
	var instrument func(*core.Machine)
	if hook := s.M.StepHook(); hook != nil {
		instrument = func(m *core.Machine) { m.SetStepHook(hook) }
	}
	n, diag, st, err := cosim.FirstDivergenceFromImage(img, cfg, max, s.cfg.TriageInterval, instrument)
	switch {
	case err != nil:
		s.journal.Append(Entry{Event: EventTriage, Attempt: s.res.Attempts,
			Slot: slot, Message: "divergence search failed: " + err.Error()})
	case n < 0:
		s.journal.Append(Entry{Event: EventTriage, Attempt: s.res.Attempts,
			Slot: slot, Insns: max,
			Message: fmt.Sprintf("engines agree up to instruction %d: failure not reproducible from the image of cycle %d", max, img.Cycle)})
	default:
		s.journal.Append(Entry{Event: EventTriage, Attempt: s.res.Attempts,
			Slot: slot, DivergedAt: n, Diff: diag,
			Message: fmt.Sprintf("first diverging instruction %d (%d probes, replayed %d insns vs %d naive)",
				n, st.Probes, st.ScanInsns+st.ProbeInsns, st.NaiveInsns)})
	}
}

// save writes img into the next rotation slot and journals it; the
// Keep-th slot pushes the genesis out of the rotation.
func (s *Supervisor) save(img *snapshot.Image) error {
	slot, err := s.store.Save(img)
	if err != nil {
		return err
	}
	s.res.FinalSlot = slot
	s.journal.Append(Entry{Event: EventCheckpoint, Attempt: s.res.Attempts,
		Cycle: img.Cycle, Slot: slot})
	if s.store.seq-s.genesisSeq >= s.cfg.Keep {
		s.genesis = nil
	}
	return nil
}

// interrupt handles cancellation: write a final checkpoint so no
// progress is lost, journal it, and return ErrInterrupted wrapping the
// context cause.
func (s *Supervisor) interrupt(cause error) error {
	if err := s.save(snapshot.Capture(s.M)); err != nil {
		return fmt.Errorf("supervisor: interrupted and final checkpoint failed: %w", err)
	}
	slot := s.res.FinalSlot
	s.journal.Append(Entry{Event: EventInterrupt, Attempt: s.res.Attempts,
		Cycle: s.M.Cycle, Insns: s.M.Insns(), Slot: slot})
	return fmt.Errorf("%w at cycle %d (final checkpoint %s): %w",
		ErrInterrupted, s.M.Cycle, slot, cause)
}
