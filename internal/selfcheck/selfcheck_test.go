package selfcheck_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/guest"
	"ptlsim/internal/hv"
	"ptlsim/internal/kern"
	"ptlsim/internal/mem"
	"ptlsim/internal/selfcheck"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/supervisor"
	"ptlsim/internal/vm"
)

// buildBench boots the deterministic rsync benchmark. The corpus is
// deliberately small: the oracle suite runs several full-workload
// machines at compare-every-commit intensity, and the whole package
// must stay comfortably inside the race-detector test budget.
func buildBench(t *testing.T) (*hv.Domain, *stats.Tree) {
	t.Helper()
	cs := guest.CorpusSpec{NFiles: 1, FileSize: 512, Seed: 5, ChangeFraction: 0.4}
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
	return img.Domain, tree
}

func checkedConfig(sc selfcheck.Config) core.Config {
	cfg := core.DefaultConfig()
	cfg.SelfCheck = sc
	return cfg
}

// TestCleanRunNoFalsePositives: a healthy machine under full
// instrumentation (oracle comparing at every commit, auditor every
// cycle) must run the benchmark to completion without a report.
func TestCleanRunNoFalsePositives(t *testing.T) {
	dom, _ := buildBench(t)
	m := core.NewMachine(dom, stats.NewTree(),
		checkedConfig(selfcheck.Config{Oracle: true, Interval: 1, Audit: true, AuditEvery: 8}))
	m.SwitchMode(core.ModeSim)
	if err := m.Run(0); err != nil {
		t.Fatalf("self-checked run failed: %v", err)
	}
	if !strings.Contains(dom.Console(), "rsync ok") {
		t.Fatalf("console: %q", dom.Console())
	}
}

// TestSelfCheckBitIdentical: the instrumentation must be invisible — a
// fault-free run with the oracle and auditor attached finishes with
// bit-identical architectural state, cycle count, console output and
// statistics to the same run without them.
func TestSelfCheckBitIdentical(t *testing.T) {
	run := func(sc selfcheck.Config) (*hv.Domain, *core.Machine, *stats.Tree) {
		dom, tree := buildBench(t)
		m := core.NewMachine(dom, tree, checkedConfig(sc))
		m.SwitchMode(core.ModeSim)
		if err := m.Run(0); err != nil {
			t.Fatalf("run (selfcheck=%+v): %v", sc, err)
		}
		return dom, m, tree
	}
	domOff, mOff, treeOff := run(selfcheck.Config{})
	domOn, mOn, treeOn := run(selfcheck.Config{Oracle: true, Interval: 1, Audit: true, AuditEvery: 8})

	if mOff.Cycle != mOn.Cycle || mOff.Insns() != mOn.Insns() {
		t.Fatalf("timing changed: off %d cycles/%d insns, on %d cycles/%d insns",
			mOff.Cycle, mOff.Insns(), mOn.Cycle, mOn.Insns())
	}
	if !vm.ArchEqual(domOff.VCPUs[0], domOn.VCPUs[0]) {
		t.Fatalf("final state changed: %s", vm.DiffArch(domOff.VCPUs[0], domOn.VCPUs[0]))
	}
	if domOff.Console() != domOn.Console() {
		t.Fatal("console output changed under self-checking")
	}
	off := treeOff.Snapshot(mOff.Cycle).Values
	on := treeOn.Snapshot(mOn.Cycle).Values
	if !reflect.DeepEqual(off, on) {
		for k, v := range on {
			if off[k] != v {
				t.Errorf("counter %s: off %d, on %d", k, off[k], v)
			}
		}
		for k, v := range off {
			if _, ok := on[k]; !ok {
				t.Errorf("counter %s: off %d, missing with self-check on", k, v)
			}
		}
		t.Fatal("statistics changed under self-checking")
	}
}

// TestInjectedFaultsDetected: every regflip/robcorrupt spec must be
// detected within one sampling window of its trigger, with the right
// report kind.
func TestInjectedFaultsDetected(t *testing.T) {
	const interval = 64
	// robcorrupt needs the auditor at full cadence: the invariant sweep
	// must classify the corruption before the commit stage's own
	// panic-check stumbles over it. The register flips are caught by the
	// oracle, so those cases run the auditor at the default-ish cadence
	// to prove it stays quiet on a diverging-but-structurally-sound
	// pipeline.
	cases := []struct {
		spec       string
		kind       simerr.Kind
		auditEvery uint64
	}{
		{"regflip@1500:reg=r13,bit=62", simerr.KindDivergence, 8},
		{"regflip@2000:reg=rbp,bit=61", simerr.KindDivergence, 8},
		{"regflip@1000:reg=rax,bit=63", simerr.KindDivergence, 8},
		{"robcorrupt@1500", simerr.KindInvariant, 1},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			specs, err := faultinject.ParseList(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			dom, tree := buildBench(t)
			m := core.NewMachine(dom, tree, checkedConfig(
				selfcheck.Config{Oracle: true, Interval: interval, Audit: true, AuditEvery: tc.auditEvery}))
			m.SwitchMode(core.ModeSim)
			faultinject.New(specs...).Attach(m)
			err = m.Run(0)
			if err == nil {
				t.Fatalf("injected fault %s not detected (run completed)", tc.spec)
			}
			se, ok := simerr.As(err)
			if !ok {
				t.Fatalf("unstructured error: %v", err)
			}
			if se.Kind != tc.kind {
				t.Fatalf("kind = %s, want %s: %v", se.Kind, tc.kind, err)
			}
			// Detection within one sampling window of the trigger. The
			// slack covers step-boundary granularity (the injector fires
			// between cycles, after up to a commit-width of instructions).
			trigger := specs[0].Insn
			if se.Commit < trigger-int64(interval) || se.Commit > trigger+2*int64(interval) {
				t.Fatalf("detected at commit %d, trigger %d, window %d", se.Commit, trigger, interval)
			}
			if se.Kind == simerr.KindDivergence && se.Expected == "" {
				t.Fatal("divergence report missing reference register file")
			}
			if se.Detail() == "" || !strings.Contains(se.Detail(), "commit index") {
				t.Fatalf("detail missing commit index:\n%s", se.Detail())
			}
		})
	}
}

// TestMemFlipOutsideTouchedPagesNotFlagged: corrupting a mapped page
// the guest never references must not trip the oracle — the shadow
// only checks state the primary actually commits.
func TestMemFlipOutsideTouchedPagesNotFlagged(t *testing.T) {
	dom, tree := buildBench(t)
	// A freshly allocated page is mapped in the machine's physical
	// memory but referenced by no guest page table entry.
	mfn := dom.M.PM.AllocPage()
	pa := mfn<<mem.PageShift + 123
	m := core.NewMachine(dom, tree, checkedConfig(
		selfcheck.Config{Oracle: true, Interval: 1, Audit: true, AuditEvery: 8}))
	m.SwitchMode(core.ModeSim)
	inj := faultinject.New(faultinject.Spec{Kind: faultinject.MemFlip, Insn: 1000, PA: pa, Bit: 3})
	inj.Attach(m)
	if err := m.Run(0); err != nil {
		t.Fatalf("memflip outside touched pages falsely flagged: %v", err)
	}
	if len(inj.Events) != 1 || !strings.Contains(inj.Events[0].Desc, "flipped") {
		t.Fatalf("fault did not fire: %+v", inj.Events)
	}
	if !strings.Contains(dom.Console(), "rsync ok") {
		t.Fatalf("console: %q", dom.Console())
	}
}

// TestSupervisedTriage: under the supervisor, an oracle-detected
// divergence must be classified non-retryable and trigger the
// checkpoint-seeded divergence search, leaving a triage record in the
// journal that pinpoints the first diverging commit.
func TestSupervisedTriage(t *testing.T) {
	const trigger = 2500
	dom, tree := buildBench(t)
	m := core.NewMachine(dom, tree, checkedConfig(
		selfcheck.Config{Oracle: true, Interval: 1}))
	m.SwitchMode(core.ModeSim)
	specs, err := faultinject.ParseList("regflip@2500:reg=r13,bit=62")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.New(specs...).Attach(m)

	// One checkpoint per guest timer period: the injected flip fires in
	// the work burst after the third timer tick, so the latest rotated
	// slot precedes it and seeds the divergence search.
	var journal bytes.Buffer
	sup, err := supervisor.New(m, supervisor.Config{
		Interval: 4_000_000_000, Dir: t.TempDir(),
		Journal: supervisor.NewJournal(&journal), Triage: true, TriageInterval: 64,
		Sleep: func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sup.Run(context.Background())
	if err == nil {
		t.Fatal("supervised run with injected divergence completed")
	}
	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindDivergence {
		t.Fatalf("want divergence error, got %v", err)
	}
	if simerr.Retryable(err) {
		t.Fatal("divergence classified retryable")
	}

	entries, err := supervisor.ReadJournal(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var fail, triage *supervisor.Entry
	for i := range entries {
		e := &entries[i]
		switch {
		case e.Event == supervisor.EventFailure && e.Kind == string(simerr.KindDivergence):
			fail = e
		case e.Event == supervisor.EventTriage:
			triage = e
		}
	}
	if fail == nil {
		t.Fatalf("no divergence failure entry in journal:\n%s", journal.String())
	}
	if fail.Retryable {
		t.Fatal("journal marks divergence retryable")
	}
	if fail.Commit == 0 || fail.RIP == 0 {
		t.Fatalf("failure entry missing commit/rip: %+v", fail)
	}
	if triage == nil {
		t.Fatalf("no triage entry in journal:\n%s", journal.String())
	}
	if triage.DivergedAt == 0 {
		t.Fatalf("triage did not localize the divergence: %+v", triage)
	}
	// The sticky flip lands at the first step boundary at or after the
	// trigger; the search must localize the first diverging commit near
	// it (never before).
	if triage.DivergedAt < trigger || triage.DivergedAt > trigger+256 {
		t.Fatalf("triage localized commit %d, trigger %d", triage.DivergedAt, trigger)
	}
	if triage.Diff == "" {
		t.Fatalf("triage entry missing register diff: %+v", triage)
	}

	// The report renderer must surface both records.
	var report strings.Builder
	supervisor.WriteReport(&report, entries, 0)
	out := report.String()
	for _, want := range []string{"self-check divergence", "triage", "first diverging instruction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
