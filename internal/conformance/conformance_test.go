package conformance

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ptlsim/internal/conformance/corpus"
	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/simerr"
	"ptlsim/internal/supervisor"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// seedPool loads the shared seed corpus as raw byte programs for the
// byte-level mutator.
func seedPool(t *testing.T) [][]byte {
	t.Helper()
	dir, err := corpus.SeedDir()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := corpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("empty seed corpus")
	}
	pool := make([][]byte, 0, len(cases))
	for i := range cases {
		code, err := cases[i].Code()
		if err != nil {
			t.Fatalf("seed case %s: %v", cases[i].Name, err)
		}
		pool = append(pool, code)
	}
	return pool
}

// emptyCaseInsns measures the committed-instruction count of a case
// with no units (kernel boot + prologue + epilogue), so fault triggers
// can be placed inside the generated body.
func emptyCaseInsns(t *testing.T) int64 {
	t.Helper()
	cfg := Config{}.withDefaults()
	code, err := BuildProgram(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := cfg.runEngine(code, core.ModeNative, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.class != classExit {
		t.Fatalf("empty case did not exit cleanly: %s", o.class)
	}
	return o.Insns
}

// TestGeneratorDeterminism: the same seed must regenerate the same
// units and the same program bytes — corpus cases replay forever.
func TestGeneratorDeterminism(t *testing.T) {
	u1, err := GenDSL(77, 12)
	if err != nil {
		t.Fatal(err)
	}
	u2, _ := GenDSL(77, 12)
	if len(u1) != len(u2) {
		t.Fatalf("unit counts differ: %d vs %d", len(u1), len(u2))
	}
	for i := range u1 {
		if !bytes.Equal(u1[i], u2[i]) {
			t.Fatalf("unit %d differs", i)
		}
	}
	p1, err := BuildProgram(u1, 77)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := BuildProgram(u2, 77)
	if !bytes.Equal(p1, p2) {
		t.Fatal("program bytes differ across rebuilds")
	}

	pool := seedPool(t)
	b1 := MutateBytes(99, pool, 16)
	b2 := MutateBytes(99, pool, 16)
	if len(b1) != len(b2) {
		t.Fatalf("mutator unit counts differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if !bytes.Equal(b1[i], b2[i]) {
			t.Fatalf("mutated unit %d differs", i)
		}
	}
}

// TestSplitUnitsRoundTrip: splitting re-concatenates to the original
// bytes, including an undecodable tail.
func TestSplitUnitsRoundTrip(t *testing.T) {
	code := []byte{0x90, 0x48, 0x01, 0xd8, 0x0f} // nop; add rax,rbx; truncated 0f
	units := SplitUnits(code)
	var cat []byte
	for _, u := range units {
		cat = append(cat, u...)
	}
	if !bytes.Equal(cat, code) {
		t.Fatalf("units do not reassemble: %x vs %x", cat, code)
	}
	if len(units) != 3 {
		t.Fatalf("want 3 units (nop, add, opaque tail), got %d: %x", len(units), units)
	}
}

// TestSeededRegflipEndToEnd is the whole loop on a seeded fault:
// a persistent register flip injected into the simulated engine is
// found by the campaign, delta-minimized to a handful of units,
// promoted into a corpus directory, and the promoted case replays —
// reproducing under the fault and running clean without it.
func TestSeededRegflipEndToEnd(t *testing.T) {
	base := emptyCaseInsns(t)
	// Fire inside the generated body and keep re-firing long enough
	// that an oracle compare boundary lands inside the window.
	spec, err := faultinject.ParseSpec(
		"regflip@" + strconv.FormatInt(base+20, 10) +
			":reg=r13,bit=62,until=" + strconv.FormatInt(base+2000, 10))
	if err != nil {
		t.Fatal(err)
	}
	attach := func(m *core.Machine) { faultinject.New(spec).Attach(m) }

	promoteDir := t.TempDir()
	var journalBuf bytes.Buffer
	j := supervisor.NewJournal(&journalBuf)
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Run:          Config{Instrument: attach},
		Seqs:         30,
		Seed:         4242,
		MaxUnits:     20,
		ShrinkProbes: 150,
		MaxFindings:  1,
		Journal:      j,
		PromoteDir:   promoteDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("seeded regflip produced no finding in 30 sequences")
	}
	cf := res.Findings[0]
	if cf.Finding.Kind != string(simerr.KindDivergence) {
		t.Fatalf("finding kind %s, want divergence (diag: %s)", cf.Finding.Kind, cf.Finding.Diag)
	}
	if got := len(cf.Case.Insns); got > 8 {
		t.Fatalf("minimized case has %d units, want <= 8 (shrink %d -> %d in %d probes)",
			got, cf.Shrink.From, cf.Shrink.To, cf.Shrink.Probes)
	}
	if cf.Shrink.Probes == 0 {
		t.Fatal("shrinker issued no probes")
	}

	// Promotion landed on disk and the journal narrates the pipeline.
	if len(res.Promoted) != 1 {
		t.Fatalf("promoted %d cases, want 1", len(res.Promoted))
	}
	if _, err := os.Stat(res.Promoted[0]); err != nil {
		t.Fatal(err)
	}
	jtxt := journalBuf.String()
	for _, ev := range []string{supervisor.EventFuzzStart, supervisor.EventFuzzFinding,
		supervisor.EventFuzzShrink, supervisor.EventFuzzPromote, supervisor.EventFuzzDone} {
		if !strings.Contains(jtxt, ev) {
			t.Fatalf("journal missing %s event:\n%s", ev, jtxt)
		}
	}

	// The promoted case replays: the fault reproduces the finding, and
	// without the fault the case runs clean (the engines are correct).
	loaded, err := corpus.Load(promoteDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d promoted cases, want 1", len(loaded))
	}
	f, err := Config{Instrument: attach}.Replay(loaded[0])
	if err != nil {
		t.Fatal(err)
	}
	if f == nil || f.Kind != string(simerr.KindDivergence) {
		t.Fatalf("promoted case does not reproduce under the fault: %v", f)
	}
	clean, err := Config{}.Replay(loaded[0])
	if err != nil {
		t.Fatal(err)
	}
	if clean != nil {
		t.Fatalf("promoted case fails without the fault: %s", clean)
	}
}

// TestRobCorruptInvariantCaught drives the pipeline invariant auditor
// through the conformance runner: ROB corruption injected into the
// simulated engine must surface as an invariant finding, survive
// shrinking, and stay attributed to the auditor (not misfiled as a
// divergence or crash).
func TestRobCorruptInvariantCaught(t *testing.T) {
	base := emptyCaseInsns(t)
	spec, err := faultinject.ParseSpec(
		"robcorrupt@" + strconv.FormatInt(base+15, 10) +
			":until=" + strconv.FormatInt(base+2000, 10))
	if err != nil {
		t.Fatal(err)
	}
	attach := func(m *core.Machine) { faultinject.New(spec).Attach(m) }
	cfg := Config{Instrument: attach}

	units, err := GenDSL(5150, 14)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cfg.RunCase(units, 5150)
	if err != nil {
		t.Fatal(err)
	}
	if f == nil {
		t.Fatal("ROB corruption went unnoticed")
	}
	if f.Kind != string(simerr.KindInvariant) && f.Kind != string(simerr.KindPanic) {
		t.Fatalf("finding kind %s, want invariant (or panic), diag: %s", f.Kind, f.Diag)
	}

	minU, st, err := cfg.Shrink(units, 5150, f.Kind, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.To > st.From {
		t.Fatalf("shrink grew the case: %d -> %d", st.From, st.To)
	}
	fm, err := cfg.RunCase(minU, 5150)
	if err != nil {
		t.Fatal(err)
	}
	if fm == nil || fm.Kind != f.Kind {
		t.Fatalf("minimized case lost the finding: %v", fm)
	}
}

// TestCleanSoak: generated sequences (both generators, plus a scrambled
// predictor pass) must agree between the engines. FUZZ_SEQS scales the
// soak (CI uses a larger count; the default keeps go test quick).
func TestCleanSoak(t *testing.T) {
	seqs := 300
	if s := os.Getenv("FUZZ_SEQS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("FUZZ_SEQS: %v", err)
		}
		seqs = v
	}
	if testing.Short() {
		seqs = min(seqs, 60)
	}
	res, err := RunCampaign(context.Background(), CampaignConfig{
		Run:      Config{TimingSeeds: []int64{0x7ead}},
		Seqs:     seqs,
		Seed:     20260807,
		SeedPool: seedPool(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) != 0 {
		f := res.Findings[0]
		t.Fatalf("%d findings in a %d-sequence soak; first: seed=%#x kind=%s diag=%s units=%v",
			len(res.Findings), res.Seqs, f.Case.Seed, f.Finding.Kind, f.Finding.Diag, f.Case.Insns)
	}
	if res.Seqs != seqs {
		t.Fatalf("campaign ran %d/%d sequences", res.Seqs, seqs)
	}
	t.Logf("%d sequences clean, %.1f seqs/sec", res.Seqs, res.SeqsPerSec)
}

// TestRegressionReplay replays every promoted case in
// testdata/conformance/regressions: each must run clean (the bugs they
// captured are fixed; a reappearance fails here first).
func TestRegressionReplay(t *testing.T) {
	dir, err := corpus.RegressionsDir()
	if err != nil {
		t.Fatal(err)
	}
	cases, err := corpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Skip("no promoted regressions yet")
	}
	for _, cs := range cases {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			f, err := Config{TimingSeeds: []int64{0x7ead}}.Replay(cs)
			if err != nil {
				t.Fatal(err)
			}
			if f != nil {
				t.Fatalf("regression reappeared (%s): %s\noriginal: %s", f.Kind, f.Diag, cs.Diag)
			}
		})
	}
}

// TestTimingSeedInvariance: a nontrivial case must produce the same
// architectural trajectory under wildly different predictor warm-ups.
func TestTimingSeedInvariance(t *testing.T) {
	units, err := GenDSL(31337, 16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Config{TimingSeeds: []int64{1, -9, 0x123456789}}.RunCase(units, 31337)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("architectural trajectory varies with timing seed %d: %s: %s",
			f.TimingSeed, f.Kind, f.Diag)
	}
}

// TestCorpusRoundTrip: promoted cases survive Write/Load bit-exactly.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	units, err := GenDSL(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := corpus.Case{Name: "round-trip", Source: "dsl", Seed: 8,
		Kind: "divergence", Diag: "demo", DivergedAt: 123}
	c.SetUnits(units)
	path, err := corpus.Write(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "round-trip.json" {
		t.Fatalf("unexpected path %s", path)
	}
	loaded, err := corpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 {
		t.Fatalf("loaded %d cases", len(loaded))
	}
	got, err := loaded[0].Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(units) {
		t.Fatalf("unit count %d, want %d", len(got), len(units))
	}
	for i := range got {
		if !bytes.Equal(got[i], units[i]) {
			t.Fatalf("unit %d differs after round trip", i)
		}
	}
	if loaded[0].DivergedAt != 123 || loaded[0].Kind != "divergence" {
		t.Fatalf("metadata lost: %+v", loaded[0])
	}
}

// TestInterlockOrderRegression pins the first bug this fuzzer found:
// two locked RMW instructions to the same cache line (xchg + lock dec)
// deadlocked the OoO core when the younger acquired the line interlock
// first. Kept inline in addition to the corpus case so the scenario is
// readable next to the fuzzer that found it.
func TestInterlockOrderRegression(t *testing.T) {
	xchg := []byte{0x48, 0x87, 0x5f, 0x0d}          // xchg [rdi+0xd], rbx
	lockDec := []byte{0xf0, 0x48, 0xff, 0x4f, 0x03} // lock dec qword [rdi+0x3]
	f, err := Config{}.RunCase([][]byte{xchg, lockDec}, 0x5aa74a9382b93308)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("same-line locked RMW pair diverges again: %s: %s", f.Kind, f.Diag)
	}
}

// TestCompareSharedDimensions runs the cases the cosim comparison table
// pins (cosim.TestCompareEngines) through this package's caller: the
// exit and boundary arms of compare must report each of them as a
// mismatch finding, and agree on the equal ones.
func TestCompareSharedDimensions(t *testing.T) {
	ctx := &vm.Context{RIP: 0x401000}
	ctx.Regs[uops.RegRBX] = 0x2a
	flipped := ctx.Clone()
	flipped.Regs[uops.RegRBX] = 0x2b
	mk := func(class string, insns int64, console string, c *vm.Context) outcome {
		return outcome{class: class, EngineState: cosim.EngineState{Insns: insns, Console: console, Ctx: c}}
	}
	cases := []struct {
		name     string
		nat, sim outcome
		diag     string // "" = the engines agree
	}{
		{"equal exit", mk(classExit, 100, "ok\n", nil), mk(classExit, 100, "ok\n", nil), ""},
		{"equal boundary", mk(classBoundary, 100, "ok\n", ctx), mk(classBoundary, 100, "ok\n", ctx.Clone()), ""},
		{"stop count", mk(classExit, 100, "ok\n", nil), mk(classExit, 97, "ok\n", nil), "instruction counts: ref 100, sim 97"},
		{"console after shutdown", mk(classExit, 100, "sum 1\n", nil), mk(classExit, 100, "sum 2\n", nil), "console"},
		{"registers", mk(classBoundary, 100, "ok\n", ctx), mk(classBoundary, 100, "ok\n", flipped), "0x2a vs 0x2b"},
	}
	for _, tc := range cases {
		f := compare(tc.nat, tc.sim, 0)
		switch {
		case tc.diag == "" && f != nil:
			t.Errorf("%s: unexpected finding %v", tc.name, f)
		case tc.diag != "" && (f == nil || f.Kind != KindMismatch || !strings.Contains(f.Diag, tc.diag)):
			t.Errorf("%s: finding %v, want a mismatch mentioning %q", tc.name, f, tc.diag)
		}
	}
}

// TestNewCampaignDerivation pins what every front end gets from one
// (seed, timing-seed count, inject spec): the seed formula decides
// which predictor scrambles a campaign replays under, so it must not
// drift between ptlsim -fuzz and a jobd fuzz job again.
func TestNewCampaignDerivation(t *testing.T) {
	cc, err := NewCampaign(CampaignConfig{Seed: 7, Seqs: 3}, 2, "regflip@10:reg=r12,bit=3")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cc.Run.TimingSeeds, []int64{7*1_000_003 + 1, 7*1_000_003 + 2}; !slices.Equal(got, want) {
		t.Errorf("timing seeds %v, want %v", got, want)
	}
	if len(cc.SeedPool) != len(seedPool(t)) {
		t.Errorf("seed pool has %d programs, the shared corpus %d", len(cc.SeedPool), len(seedPool(t)))
	}
	if cc.Run.Instrument == nil || cc.Seed != 7 || cc.Seqs != 3 {
		t.Errorf("inject spec not attached or caller fields disturbed: %+v", cc)
	}
	if _, err := NewCampaign(CampaignConfig{}, 0, "no-such-fault@1"); err == nil {
		t.Error("a malformed inject spec was accepted")
	}
}
