package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ptlsim/internal/guest"
	"ptlsim/internal/kern"
	"ptlsim/internal/selfcheck"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/x86"
)

// Machine-level tests of the next-event clock. There are two references
// for "what stepping every cycle gives". stepOneCycle below is the
// simulation-mode step as it was before the clock — every core, one
// cycle, advance by one — kept here for the tests to compare against; it
// knows nothing of horizons, so it also checks what the machine does
// around a span (timers, snapshots, run bounds). The second is the same
// guest with the pipeline auditor on: an audited core steps through
// every span it is asked to skip and checks that the span was as quiet
// as predicted.

// stepOneCycle is Machine.step without the next-event clock: when some
// VCPU is awake, one cycle of every core and the clock moves by one. (A
// fully halted domain sleeps to its next deadline through the product's
// own code; that case is as old as the idle skip.)
func stepOneCycle(m *Machine) error {
	if h, halted := m.horizon(never); halted {
		if h == never {
			return m.deadlockErr(true)
		}
		return m.skipTo(h, true)
	}
	for _, c := range m.oooCores {
		if err := c.Cycle(m.Cycle); err != nil {
			return err
		}
	}
	m.Stepped++
	m.advance(1)
	return nil
}

// runCycleByCycle is Machine.Run on stepOneCycle (simulation mode only).
func runCycleByCycle(m *Machine, maxCycles uint64) (err error) {
	defer m.guard(&err)
	for !m.Dom.ShutdownReq {
		if maxCycles > 0 && m.Cycle >= maxCycles {
			return m.BudgetErr(fmt.Sprintf("cycle budget %d exhausted", maxCycles))
		}
		if err := stepOneCycle(m); err != nil {
			return err
		}
		if m.stepHook != nil {
			m.stepHook(m)
		}
		m.postStep()
	}
	if m.collector != nil {
		m.collector.Tick(m.Cycle)
	}
	return nil
}

// audited returns cfg with the invariant auditor on at a cadence that
// keeps its whole-cache walks off the test's clock.
func audited(cfg Config) Config {
	cfg.SelfCheck = selfcheck.Config{Audit: true, AuditEvery: 1024}
	return cfg
}

// finished checks that a run ended with its guest's message.
func finished(t *testing.T, m *Machine, err error, console string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Dom.Console(), console) {
		t.Fatalf("guest failed: console %q", m.Dom.Console())
	}
}

// runToShutdown runs m to the end of its guest.
func runToShutdown(t *testing.T, m *Machine, console string) {
	t.Helper()
	finished(t, m, m.Run(50_000_000), console)
}

// TestJumpedRunEqualsSteppedRun: the chase guest with a timer that fires
// every 3,000 cycles — mostly while a miss is outstanding — and a
// statistics snapshot every 10,007 ends on the same cycle with the same
// console, stats tree, event log and snapshot series whether quiet spans
// are jumped, stepped by the reference above, or stepped and checked by
// the auditor. A timer delivered a cycle late, a snapshot holding
// counters from beyond its label, or a stall counter advanced by the
// wrong amount each shows here.
func TestJumpedRunEqualsSteppedRun(t *testing.T) {
	cfg := k8Machine()
	cfg.SnapshotCycles = 10_007
	run := bootChase(t, 3000, cfg)
	runToShutdown(t, run, "chase ok")
	ref := bootChase(t, 3000, cfg)
	finished(t, ref, runCycleByCycle(ref, 50_000_000), "chase ok")
	aud := bootChase(t, 3000, audited(cfg))
	runToShutdown(t, aud, "chase ok")

	want := fingerprintOf(t, ref)
	if got := fingerprintOf(t, run); got != want {
		t.Fatalf("jumped run differs from the stepped one:\n got %+v\nwant %+v", got, want)
	}
	if got := fingerprintOf(t, aud); got != want {
		t.Fatalf("audited run differs from the stepped one:\n got %+v\nwant %+v", got, want)
	}
	for name, m := range map[string]*Machine{"jumped": run, "audited": aud} {
		if got, want := m.Series(), ref.Series(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s run: snapshot series differs from the stepped run's (%d and %d snapshots)",
				name, len(got.Snapshots), len(want.Snapshots))
		}
	}
	t.Logf("%d cycles: %d stepped, %d jumped", run.Cycle, run.Stepped, run.Jumped)
	if 2*run.Jumped < run.Cycle {
		t.Fatalf("only %d of %d cycles jumped: the test compares stepping with stepping", run.Jumped, run.Cycle)
	}
	if ref.Jumped != 0 || run.Stepped+run.Jumped != ref.Stepped || aud.Stepped != run.Stepped || aud.Jumped != run.Jumped {
		t.Fatalf("%d stepped + %d jumped cycles; audited %d + %d; the stepped run has %d + %d",
			run.Stepped, run.Jumped, aud.Stepped, aud.Jumped, ref.Stepped, ref.Jumped)
	}
	if busy := uint64(run.Tree.Lookup("core0.cycles").Value()); busy != run.Stepped+run.Jumped {
		t.Fatalf("core0.cycles = %d, %d stepped + %d jumped", busy, run.Stepped, run.Jumped)
	}
	for _, path := range []string{"hv.timer.fires", "core0.interrupts", "core0.stall.iq_full", "core0.dtlb.misses"} {
		if run.Tree.Lookup(path).Value() < 10 {
			t.Errorf("%s = %d: the run does not exercise what the test is about", path, run.Tree.Lookup(path).Value())
		}
	}
	if n := len(run.Series().Snapshots); n < 10 {
		t.Errorf("%d snapshots taken", n)
	}
}

// TestHaltedSpansAreNotClocked: the rsync guest sleeps between timer
// ticks. The cores' cycle counters stand still while it does (that time
// is cycles_in_mode.idle, which the benchmark subtracts to get its busy
// cycles): a core is clocked in exactly the stepped and the jumped
// cycles, and the run equals the reference's.
func TestHaltedSpansAreNotClocked(t *testing.T) {
	boot := func() *Machine {
		cs := guest.CorpusSpec{NFiles: 1, FileSize: 1024, Seed: 5, ChangeFraction: 0.4}
		spec, err := guest.RsyncBenchmark(cs, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		spec.Tree = stats.NewTree()
		img, err := kern.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(img.Domain, spec.Tree, k8Machine())
		m.SwitchMode(ModeSim)
		return m
	}
	run, ref := boot(), boot()
	runToShutdown(t, run, "rsync ok")
	finished(t, ref, runCycleByCycle(ref, 50_000_000), "rsync ok")
	if got, want := fingerprintOf(t, run), fingerprintOf(t, ref); got != want {
		t.Fatalf("run differs from the stepped one:\n got %+v\nwant %+v", got, want)
	}
	busy := uint64(run.Tree.Lookup("core0.cycles").Value())
	idle := uint64(run.Tree.Lookup("external.cycles_in_mode.idle").Value())
	if idle == 0 || run.Jumped == 0 {
		t.Fatalf("%d idle cycles, %d jumped: the guest must both sleep and stall", idle, run.Jumped)
	}
	if busy != run.Stepped+run.Jumped || busy >= run.Cycle {
		t.Fatalf("%d core cycles, %d stepped + %d jumped, in a run of %d cycles with %d idle",
			busy, run.Stepped, run.Jumped, run.Cycle, idle)
	}
}

// TestRunUntilCycleReturnsAtTarget: with a VCPU awake, RunUntilCycle(t)
// returns at exactly t although t falls inside a stall (benchmark's
// quanta and snapshot.Runner's checkpoint intervals land where stepping
// lands), and a run cut into such pieces ends like an uncut one.
func TestRunUntilCycleReturnsAtTarget(t *testing.T) {
	whole := bootChase(t, 3000, k8Machine())
	runToShutdown(t, whole, "chase ok")

	m := bootChase(t, 3000, k8Machine())
	pieces := 0
	for !m.Dom.ShutdownReq {
		target := m.Cycle + 777
		if err := m.RunUntilCycle(target); err != nil {
			t.Fatal(err)
		}
		if m.Cycle != target && !m.Dom.ShutdownReq {
			t.Fatalf("RunUntilCycle(%d) returned at cycle %d", target, m.Cycle)
		}
		pieces++
	}
	if got, want := fingerprintOf(t, m), fingerprintOf(t, whole); got != want {
		t.Fatalf("run in %d pieces differs from the whole one:\n got %+v\nwant %+v", pieces, got, want)
	}
	if m.Jumped == 0 || m.Jumped+m.Stepped != whole.Jumped+whole.Stepped {
		t.Fatalf("pieces: %d stepped + %d jumped; whole: %d + %d", m.Stepped, m.Jumped, whole.Stepped, whole.Jumped)
	}
}

// hangMemory makes every cache response of m's cores arrive at cycle
// until once insns instructions have committed (the fault injector's
// memdelay, which lives above this package).
func hangMemory(m *Machine, insns int64, until uint64) {
	m.SetStepHook(func(m *Machine) {
		if m.Insns() >= insns {
			for _, c := range m.OOOCores() {
				c.Hierarchy().SetResponseDelay(until)
			}
			m.SetStepHook(nil)
		}
	})
}

// TestHungMemoryEndsWhereSteppingEnds: memory that stops answering
// leaves the pipeline in a stall without a useful end. Depending on what
// bounds the run this is a watchdog report, an exhausted cycle budget or
// an exhausted budget of RunUntilInsns — each on the cycle, and for the
// watchdog with the words and the pipeline dump, that the stepped
// machine gives.
func TestHungMemoryEndsWhereSteppingEnds(t *testing.T) {
	const hangAt, forever = 3000, 1 << 62 // in the chase
	failure := func(t *testing.T, cfg Config, run func(m *Machine) error) *simerr.SimError {
		t.Helper()
		m := bootChase(t, 0, cfg) // the kernel's default tick, every 2.2M cycles
		hangMemory(m, hangAt, forever)
		err := run(m)
		se, ok := simerr.As(err)
		if !ok {
			t.Fatalf("run returned %v, want a SimError", err)
		}
		if se.Cycle != m.Cycle && se.Kind != simerr.KindLivelock {
			t.Fatalf("%v report at cycle %d, machine at %d", se.Kind, se.Cycle, m.Cycle)
		}
		return se
	}
	watchdog := k8Machine()
	watchdog.WatchdogCycles = 5000
	insnBudget := func(m *Machine) error {
		if err := m.RunUntilCycle(1234); err != nil {
			return err
		}
		return m.RunUntilInsns(1<<40, 300_000)
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		kind     simerr.Kind
		run, ref func(m *Machine) error
	}{
		{"watchdog", watchdog, simerr.KindLivelock,
			func(m *Machine) error { return m.Run(0) }, func(m *Machine) error { return runCycleByCycle(m, 0) }},
		{"run budget", k8Machine(), simerr.KindCycleBudget,
			func(m *Machine) error { return m.Run(400_000) }, func(m *Machine) error { return runCycleByCycle(m, 400_000) }},
		// RunUntilInsns has no reference loop here: the audited machine's
		// cores step every cycle, and the budget error has no dump.
		{"insn budget", audited(k8Machine()), simerr.KindCycleBudget, insnBudget, insnBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := failure(t, tc.cfg, tc.ref)
			for name, cfg := range map[string]Config{"jumped": tc.cfg, "audited": audited(tc.cfg)} {
				got := failure(t, cfg, tc.run)
				if got.Kind != tc.kind || got.Cycle != want.Cycle || got.Message != want.Message || got.Dump != want.Dump {
					t.Fatalf("%s: failure moved:\n got %v at cycle %d: %q\nwant %v at cycle %d: %q\n(dumps equal: %v)",
						name, got.Kind, got.Cycle, got.Message, want.Kind, want.Cycle, want.Message, got.Dump == want.Dump)
				}
			}
		})
	}
}

// TestNothingScheduledIsADeadlock: a core that is awake with nothing
// scheduled, in a machine with no timer, no watchdog and no run bound
// (here: a kernel-less guest spinning in a loop, held at a commit limit
// nobody lifts), has no next event. Stepping it would never end; the
// machine reports a deadlock with the pipeline dump. With a cycle budget
// the run ends there instead.
func TestNothingScheduledIsADeadlock(t *testing.T) {
	a := x86.NewAssembler(pairCodeVA)
	a.Forever(func() { a.Inc(x86.R(x86.RAX)) })
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	m := bootBare(t, k8Machine(), code, pairCodeVA)
	m.OOOCores()[0].SetCommitLimit(500)
	se, ok := simerr.As(m.Run(0))
	if !ok || se.Kind != simerr.KindDeadlock || !strings.Contains(se.Message, "anything scheduled") ||
		!strings.Contains(se.Dump, "core 0") || se.Cycle != m.Cycle {
		t.Fatalf("want a deadlock report with the pipeline dump at cycle %d, got %+v", m.Cycle, se)
	}
	if m.Insns() != 500 {
		t.Fatalf("%d instructions committed, limit 500", m.Insns())
	}
	budget := m.Cycle + 1000
	se, ok = simerr.As(m.Run(budget))
	if !ok || se.Kind != simerr.KindCycleBudget || se.Cycle != budget {
		t.Fatalf("want a cycle-budget report at cycle %d, got %+v", budget, se)
	}
}

// TestHorizonDoesNotAllocate: the horizon is asked for before every
// simulated cycle.
func TestHorizonDoesNotAllocate(t *testing.T) {
	m := bootChase(t, 3000, k8Machine())
	if err := m.RunUntilCycle(100_000); err != nil {
		t.Fatal(err)
	}
	quiet := 0
	allocs := testing.AllocsPerRun(200, func() {
		if h, _ := m.horizon(never); h > m.Cycle {
			quiet++
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per horizon + step, want 0", allocs)
	}
	if quiet == 0 {
		t.Fatal("no step of the window started in a quiet span")
	}
}

// TestPairRunsAreDeterministic: two SMT threads of one core, and two
// cores under MOESI, contending for one locked line while each waits on
// its own misses. Each machine runs twice as it is, once under the
// auditor and once on the every-cycle reference; cycles, console, stats
// tree and event log are equal across the four. One stalled core beside a busy one must not be
// jumped, a halted VCPU beside a running one must be clocked, and
// recoveries raised in the same cycle must be applied in the same order
// every time.
func TestPairRunsAreDeterministic(t *testing.T) {
	smt := DefaultConfig()
	smt.ThreadsPerCore = 2
	moesi := DefaultConfig()
	moesi.UseMOESI = true
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"smt2", smt}, {"two cores moesi", moesi}} {
		t.Run(tc.name, func(t *testing.T) {
			ref := bootPair(t, tc.cfg)
			finished(t, ref, runCycleByCycle(ref, 50_000_000), "pair ok 0")
			fps := []fingerprint{fingerprintOf(t, ref)}
			jumped := []uint64{0}
			for _, cfg := range []Config{tc.cfg, tc.cfg, audited(tc.cfg)} {
				m := bootPair(t, cfg)
				runToShutdown(t, m, "pair ok 0")
				fps = append(fps, fingerprintOf(t, m))
				jumped = append(jumped, m.Jumped)
				replays := m.Tree.Lookup("core0.lock_replays").Value()
				if c := m.Tree.Lookup("core1.lock_replays"); c != nil {
					replays += c.Value()
				}
				if replays == 0 {
					t.Fatal("no lock replay: the VCPUs never contended for the line")
				}
			}
			if fps[1] != fps[2] {
				t.Fatalf("two runs differ:\n%+v\n%+v", fps[1], fps[2])
			}
			if fps[1] != fps[0] {
				t.Fatalf("jumped run differs from the stepped one:\n got %+v\nwant %+v", fps[1], fps[0])
			}
			if fps[3] != fps[0] {
				t.Fatalf("audited run differs from the stepped one:\n got %+v\nwant %+v", fps[3], fps[0])
			}
			t.Logf("%d cycles, %d jumped", fps[1].cycles, jumped[1])
			if jumped[1] == 0 || jumped[3] != jumped[1] {
				t.Fatalf("jumped %d cycles (the audited machine stepped through %d)", jumped[1], jumped[3])
			}
		})
	}
}
