package supervisor

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/guest"
	"ptlsim/internal/kern"
	"ptlsim/internal/simerr"
	"ptlsim/internal/snapshot"
	"ptlsim/internal/stats"
	"ptlsim/internal/vm"
)

// The calibration below relies on the deterministic profile of the
// small rsync benchmark in sim mode (timer period 4G cycles): the
// active region commits ~109k instructions across ~250k cycles
// starting near cycle 12.00G, so a 50k-cycle checkpoint interval
// crosses several boundaries inside it.
const testInterval = 50_000

func benchConfig() core.Config {
	return core.Config{Core: core.DefaultConfig().Core, NativeCPI: 1, ThreadsPerCore: 1}
}

// buildBench boots the deterministic timer-quiet rsync benchmark in
// cycle-accurate mode.
func buildBench(t *testing.T) *core.Machine {
	t.Helper()
	cs := guest.CorpusSpec{NFiles: 1, FileSize: 1024, Seed: 5, ChangeFraction: 0.4}
	spec, err := guest.RsyncBenchmark(cs, 4_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tree := stats.NewTree()
	spec.Tree = tree
	img, err := kern.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(img.Domain, tree, benchConfig())
	m.SwitchMode(core.ModeSim)
	return m
}

// fastConfig is the supervision config used by the tests: real
// rotation and journal, negligible backoff.
func fastConfig(t *testing.T, journal *bytes.Buffer) Config {
	t.Helper()
	return Config{
		Interval:    testInterval,
		Dir:         t.TempDir(),
		Keep:        3,
		MaxRetries:  8,
		BackoffBase: time.Microsecond,
		BackoffMax:  10 * time.Microsecond,
		Journal:     NewJournal(journal),
	}
}

// runSupervised builds a supervisor over m and runs it to completion,
// failing the test on error.
func runSupervised(t *testing.T, m *core.Machine, cfg Config) *Supervisor {
	t.Helper()
	s, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.M.Dom.Console(), "rsync ok") {
		t.Fatalf("benchmark did not finish: %q", s.M.Dom.Console())
	}
	return s
}

// assertBitIdentical checks the acceptance property: identical cycle
// count, instruction count, per-VCPU architectural state, console
// output, and statistics tree.
func assertBitIdentical(t *testing.T, clean, recovered *core.Machine) {
	t.Helper()
	if clean.Cycle != recovered.Cycle {
		t.Errorf("cycle count diverged: clean %d, recovered %d", clean.Cycle, recovered.Cycle)
	}
	if clean.Insns() != recovered.Insns() {
		t.Errorf("instruction count diverged: clean %d, recovered %d", clean.Insns(), recovered.Insns())
	}
	for i := range clean.Dom.VCPUs {
		if !vm.ArchEqual(clean.Dom.VCPUs[i], recovered.Dom.VCPUs[i]) {
			t.Errorf("vcpu %d arch state diverged: %s", i,
				vm.DiffArch(clean.Dom.VCPUs[i], recovered.Dom.VCPUs[i]))
		}
	}
	if clean.Dom.Console() != recovered.Dom.Console() {
		t.Error("console output diverged")
	}
	s1 := clean.Tree.Snapshot(clean.Cycle).Values
	s2 := recovered.Tree.Snapshot(recovered.Cycle).Values
	if !reflect.DeepEqual(s1, s2) {
		for k, v := range s1 {
			if s2[k] != v {
				t.Errorf("counter %s: clean %d, recovered %d", k, v, s2[k])
			}
		}
		t.Error("statistics diverged")
	}
}

// journalEvents extracts the event-name sequence from a journal buffer.
func journalEvents(t *testing.T, buf *bytes.Buffer) []Entry {
	t.Helper()
	entries, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func countEvents(entries []Entry, event string) int {
	n := 0
	for _, e := range entries {
		if e.Event == event {
			n++
		}
	}
	return n
}

func TestCleanRunCompletes(t *testing.T) {
	var journal bytes.Buffer
	s := runSupervised(t, buildBench(t), fastConfig(t, &journal))
	res := s.Result()
	if res.Attempts != 1 || res.Retries != 0 || res.DegradedWindows != 0 {
		t.Fatalf("clean run result: %+v", res)
	}
	entries := journalEvents(t, &journal)
	if countEvents(entries, EventComplete) != 1 {
		t.Fatalf("journal missing complete event: %+v", entries)
	}
	if countEvents(entries, EventCheckpoint) < 3 {
		t.Fatalf("expected several checkpoint events, journal: %+v", entries)
	}
	if got := s.Result().FinalSlot; got == "" {
		t.Fatal("no final checkpoint slot recorded")
	}
	// Keep slots on disk have pushed the genesis out of the rotation.
	if s.genesis != nil {
		t.Fatal("genesis image still held after Keep newer slots")
	}
}

// TestTransientFaultRecoversBitIdentical is the headline acceptance
// test: a run that panics once on an injected ROB corruption must,
// under supervision, restore the previous rotation slot, replay, and
// finish bit-identical to an uninjected run under the same cadence.
func TestTransientFaultRecoversBitIdentical(t *testing.T) {
	var cleanJournal bytes.Buffer
	clean := runSupervised(t, buildBench(t), fastConfig(t, &cleanJournal))

	var journal bytes.Buffer
	m := buildBench(t)
	// One-shot pipeline corruption mid-active-region: the injector's
	// fired latch makes the fault transient across restore attempts.
	faultinject.New(faultinject.Spec{Kind: faultinject.ROBCorrupt, Insn: 30_000}).Attach(m)
	s := runSupervised(t, m, fastConfig(t, &journal))

	res := s.Result()
	if res.Retries < 1 || res.Attempts < 2 {
		t.Fatalf("fault did not trigger a retry: %+v", res)
	}
	if res.DegradedWindows != 0 {
		t.Fatalf("transient fault must not degrade: %+v", res)
	}
	entries := journalEvents(t, &journal)
	if countEvents(entries, EventFailure) < 1 || countEvents(entries, EventRestore) < 1 {
		t.Fatalf("journal missing failure/restore: %+v", entries)
	}
	for _, e := range entries {
		if e.Event == EventFailure && e.Kind != string(simerr.KindPanic) {
			t.Fatalf("failure kind = %q, want panic: %+v", e.Kind, e)
		}
	}
	assertBitIdentical(t, clean.M, s.M)
}

// TestCorruptedNewestSlotFallsBack kills the newest checkpoint on disk
// right before the crash: recovery must discard it (CRC) and restore
// the previous rotation slot, still converging bit-identical.
func TestCorruptedNewestSlotFallsBack(t *testing.T) {
	var cleanJournal bytes.Buffer
	clean := runSupervised(t, buildBench(t), fastConfig(t, &cleanJournal))

	var journal bytes.Buffer
	cfg := fastConfig(t, &journal)
	m := buildBench(t)
	fired := false
	m.SetStepHook(func(m *core.Machine) {
		if fired || m.Insns() < 60_000 {
			return
		}
		fired = true
		// Flip a payload byte of the newest slot, then crash. The next
		// read of that slot must fail its checksum.
		slots := (&Store{Dir: cfg.Dir, Keep: cfg.Keep}).Slots()
		if len(slots) < 2 {
			t.Errorf("want ≥2 slots before the fault, have %v", slots)
		}
		data, err := os.ReadFile(slots[0])
		if err != nil {
			t.Error(err)
		}
		data[len(data)-10] ^= 0xff
		if err := os.WriteFile(slots[0], data, 0o644); err != nil {
			t.Error(err)
		}
		panic("injected crash with corrupted newest checkpoint")
	})
	s := runSupervised(t, m, cfg)

	entries := journalEvents(t, &journal)
	if countEvents(entries, EventDiscardSlot) != 1 {
		t.Fatalf("journal should record exactly one discarded slot: %+v", entries)
	}
	for _, e := range entries {
		if e.Event == EventDiscardSlot && !strings.Contains(e.Message, "checksum") {
			t.Fatalf("discard reason should be the checksum: %+v", e)
		}
	}
	if countEvents(entries, EventRestore) < 1 {
		t.Fatalf("journal missing restore: %+v", entries)
	}
	assertBitIdentical(t, clean.M, s.M)
}

// TestFirstWindowFailureRecoversFromGenesis: a fault before the first
// boundary, with no slot of this run on disk yet, restores the
// in-memory genesis image and still finishes bit-identical to a clean
// run — also when the directory holds a finished run's slots, which
// are not this run's restore points.
func TestFirstWindowFailureRecoversFromGenesis(t *testing.T) {
	var cleanJournal bytes.Buffer
	cleanCfg := fastConfig(t, &cleanJournal)
	clean := runSupervised(t, buildBench(t), cleanCfg)

	for _, dir := range []struct{ name, path string }{
		{"empty", t.TempDir()},
		{"stale", cleanCfg.Dir},
	} {
		t.Run(dir.name, func(t *testing.T) {
			var journal bytes.Buffer
			cfg := fastConfig(t, &journal)
			cfg.Dir = dir.path
			stale := (&Store{Dir: cfg.Dir}).Slots()
			m := buildBench(t)
			fired := false
			m.SetStepHook(func(m *core.Machine) {
				if fired || m.Insns() < 500 {
					return
				}
				fired = true
				if slots := (&Store{Dir: cfg.Dir}).Slots(); !reflect.DeepEqual(slots, stale) {
					t.Errorf("fault is not inside the first window: slots %v on disk, %v before the run", slots, stale)
				}
				panic("injected crash in the first window")
			})
			s := runSupervised(t, m, cfg)
			if !fired {
				t.Fatal("the fault never fired")
			}

			entries := journalEvents(t, &journal)
			var restore *Entry
			for i, e := range entries {
				if e.Event == EventCheckpoint && restore == nil {
					t.Fatalf("checkpoint %+v journaled before the first restore", e)
				}
				if e.Event == EventRestore && restore == nil {
					restore = &entries[i]
				}
			}
			if restore == nil || restore.Slot != "" || restore.Cycle != entries[0].Cycle {
				t.Fatalf("want a restore of the genesis (cycle %d, no slot), got %+v", entries[0].Cycle, restore)
			}
			assertBitIdentical(t, clean.M, s.M)
		})
	}
}

// TestPersistentFaultDegradesToSequentialCore: a fault bound to an
// instruction window re-fires on every replay, so retry alone cannot
// pass it. After DegradeAfter consecutive failures at the same restore
// point the supervisor must re-execute the window on the sequential
// core, journal the degraded interval, and finish the run with the
// same architectural outcome (timing fidelity is forfeited for the
// window, so cycle counts are not compared).
func TestPersistentFaultDegradesToSequentialCore(t *testing.T) {
	var cleanJournal bytes.Buffer
	clean := runSupervised(t, buildBench(t), fastConfig(t, &cleanJournal))

	var journal bytes.Buffer
	cfg := fastConfig(t, &journal)
	cfg.DegradeAfter = 2
	m := buildBench(t)
	faultinject.New(faultinject.Spec{
		Kind: faultinject.ROBCorrupt, Insn: 30_000, Until: 60_000,
	}).Attach(m)
	s := runSupervised(t, m, cfg)

	res := s.Result()
	if res.DegradedWindows < 1 {
		t.Fatalf("persistent fault should degrade: %+v", res)
	}
	entries := journalEvents(t, &journal)
	if countEvents(entries, EventDegradeOn) != res.DegradedWindows ||
		countEvents(entries, EventDegradeOff) != res.DegradedWindows {
		t.Fatalf("degrade events inconsistent with result %+v: %+v", res, entries)
	}
	for _, e := range entries {
		if e.Event == EventDegradeOff && e.ToCycle <= e.FromCycle {
			t.Fatalf("degraded window made no progress: %+v", e)
		}
	}
	// The sequential core is architecturally exact: instruction totals,
	// guest-visible output and final register state all match the clean
	// run even though the window's timing was not modeled.
	if clean.M.Insns() != s.M.Insns() {
		t.Errorf("instruction count diverged: clean %d, degraded %d", clean.M.Insns(), s.M.Insns())
	}
	if clean.M.Dom.Console() != s.M.Dom.Console() {
		t.Error("console output diverged")
	}
	for i := range clean.M.Dom.VCPUs {
		if !vm.ArchEqual(clean.M.Dom.VCPUs[i], s.M.Dom.VCPUs[i]) {
			t.Errorf("vcpu %d arch state diverged: %s", i,
				vm.DiffArch(clean.M.Dom.VCPUs[i], s.M.Dom.VCPUs[i]))
		}
	}
}

// TestRetryBudgetExhausted: with degradation disabled, an incurable
// fault must consume the bounded retry budget — with capped
// exponential backoff between attempts — and then surface the
// underlying failure.
func TestRetryBudgetExhausted(t *testing.T) {
	var journal bytes.Buffer
	cfg := fastConfig(t, &journal)
	cfg.MaxRetries = 3
	cfg.DegradeAfter = -1 // degradation off: retries are all we have
	cfg.BackoffBase = time.Microsecond
	cfg.BackoffMax = 3 * time.Microsecond
	var sleeps []time.Duration
	cfg.Sleep = func(d time.Duration) { sleeps = append(sleeps, d) }

	m := buildBench(t)
	m.SetStepHook(func(m *core.Machine) {
		if m.Mode() == core.ModeSim && m.Insns() >= 30_000 {
			panic("persistent fault")
		}
	})
	s, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "retry budget 3 exhausted") {
		t.Fatalf("want retry-budget error, got %v", err)
	}
	if se, ok := simerr.As(err); !ok || se.Kind != simerr.KindPanic {
		t.Fatalf("exhaustion error should wrap the underlying SimError: %v", err)
	}
	if got := s.Result().Retries; got != 3 {
		t.Fatalf("retries = %d, want 3", got)
	}
	// Backoff: 1µs, then doubled to 2µs, then capped at 3µs.
	want := []time.Duration{time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond}
	if !reflect.DeepEqual(sleeps, want) {
		t.Fatalf("backoff schedule = %v, want %v", sleeps, want)
	}
	entries := journalEvents(t, &journal)
	if countEvents(entries, EventGiveUp) != 1 {
		t.Fatalf("journal missing give_up: %+v", entries)
	}
}

// TestNonRetryableFailureIsFatal: a cycle-budget error must not be
// retried — it would replay to the same exhaustion.
func TestNonRetryableFailureIsFatal(t *testing.T) {
	var journal bytes.Buffer
	cfg := fastConfig(t, &journal)
	cfg.MaxCycles = 1_000_000 // exhausted during the first idle jump
	var sleeps []time.Duration
	cfg.Sleep = func(d time.Duration) { sleeps = append(sleeps, d) }
	s, err := New(buildBench(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(context.Background())
	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindCycleBudget {
		t.Fatalf("want cycle-budget SimError, got %v", err)
	}
	if len(sleeps) != 0 || s.Result().Retries != 0 {
		t.Fatalf("non-retryable failure must not retry: sleeps=%v result=%+v", sleeps, s.Result())
	}
}

// TestInterruptCheckpointsAndResumes: cancellation mid-run writes a
// final checkpoint and reports ErrInterrupted; a new supervisor over
// the restored image finishes the run.
func TestInterruptCheckpointsAndResumes(t *testing.T) {
	var journal bytes.Buffer
	cfg := fastConfig(t, &journal)
	ctx, cancel := context.WithCancel(context.Background())
	m := buildBench(t)
	m.SetStepHook(func(m *core.Machine) {
		if m.Insns() >= 40_000 {
			cancel()
		}
	})
	s, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Run(ctx)
	if !errors.Is(err, ErrInterrupted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrInterrupted wrapping context.Canceled, got %v", err)
	}
	entries := journalEvents(t, &journal)
	if countEvents(entries, EventInterrupt) != 1 {
		t.Fatalf("journal missing interrupt: %+v", entries)
	}
	interruptCycle := s.M.Cycle

	// Resume in a "fresh process": reload the rotation, restore, run.
	store, err := OpenStore(cfg.Dir, cfg.Keep)
	if err != nil {
		t.Fatal(err)
	}
	img, slot, err := store.LoadLatest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.Cycle != interruptCycle {
		t.Fatalf("final checkpoint at cycle %d, interrupted at %d (slot %s)",
			img.Cycle, interruptCycle, slot)
	}
	m2, err := snapshot.Restore(img, benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := fastConfig(t, &bytes.Buffer{})
	cfg2.Dir = cfg.Dir
	s2, err := New(m2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s2.M.Dom.Console(), "rsync ok") {
		t.Fatalf("resumed run did not finish: %q", s2.M.Dom.Console())
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	m := buildBench(t)
	if _, err := New(m, Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if _, err := New(m, Config{Interval: 1000}); err == nil {
		t.Fatal("missing dir must be rejected")
	}
}

// TestJournalSelfCheckRoundTrip: the self-check fields (commit index,
// rip, register diff, triage localization) must survive the journal's
// JSONL encode/decode cycle and surface in both render paths.
func TestJournalSelfCheckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Append(Entry{Event: EventFailure, Kind: string(simerr.KindDivergence),
		Cycle: 12_000_006_778, Commit: 3073, RIP: 0xffff800000100728,
		Diff: "r13: expected 0x1, got 0x4000000000000001; flags: expected [], got [cf]",
		Message: "store count mismatch"})
	j.Append(Entry{Event: EventTriage, Slot: "ckpt-002", DivergedAt: 2503,
		Diff:    "r13: expected 0x1, got 0x4000000000000001",
		Message: "first diverging instruction 2503 (9 probes, replayed 1200 insns vs 5006 naive)"})

	entries, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	fail, triage := entries[0], entries[1]
	if fail.Commit != 3073 || fail.RIP != 0xffff800000100728 || fail.Diff == "" {
		t.Fatalf("failure entry lost self-check fields: %+v", fail)
	}
	if triage.DivergedAt != 2503 || triage.Diff == "" {
		t.Fatalf("triage entry lost fields: %+v", triage)
	}

	for _, want := range []string{"commit=3073", "rip=0xffff800000100728", "diverged_at=2503"} {
		line := FormatEntry(fail) + FormatEntry(triage)
		if !strings.Contains(line, want) {
			t.Errorf("FormatEntry output missing %q:\n%s", want, line)
		}
	}

	var report strings.Builder
	WriteReport(&report, entries, 0)
	out := report.String()
	for _, want := range []string{
		"self-check divergence", "commit 3073", "rip 0xffff800000100728",
		"first diverging instruction 2503",
		"r13: expected 0x1, got 0x4000000000000001",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// A journal from a conformance fuzz campaign renders a fuzz section:
// finding counts by kind, shrink/promote lines, and the campaign
// summary as the outcome.
func TestReportFuzzSection(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Append(Entry{Event: EventFuzzStart, Message: "seqs=100 seed=0x2a"})
	j.Append(Entry{Event: EventFuzzFinding, Kind: "divergence", Insns: 412,
		Message: "store 0 mismatch"})
	j.Append(Entry{Event: EventFuzzShrink, Message: "14 -> 2 units in 31 probes"})
	j.Append(Entry{Event: EventFuzzPromote, Slot: "dsl-0000000000000007.json"})
	j.Append(Entry{Event: EventFuzzDone,
		Message: "100 seqs, 1 findings, 1 promoted"})
	entries, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	WriteReport(&report, entries, 0)
	out := report.String()
	for _, want := range []string{
		"fuzz: 1 finding(s) (divergence: 1), 1 shrunk, 1 promoted",
		"finding [divergence] at insn 412: store 0 mismatch",
		"shrink: 14 -> 2 units in 31 probes",
		"promoted dsl-0000000000000007.json",
		"outcome: fuzz campaign done: 100 seqs, 1 findings, 1 promoted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
