package ooo

import (
	"hash/fnv"
	"strings"
	"testing"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/evlog"
	"ptlsim/internal/mem"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// Tests of the next-event clock at the level of one core: a driver that
// uses NextEvent and SkipTo the way core.Machine does must leave the
// core exactly where calling Cycle for every cycle leaves it.

const (
	stallVA    = 0x800000 // the stall guest's big data window
	stallPages = 40
	stallIters = 12
)

// progStall is a guest the pipeline mostly waits in. Each iteration
// touches three new pages: a load that misses the DTLB and every cache
// level with forty dependent adds behind it (the integer issue queues
// fill: stall.iq_full), a second such load with ninety independent moves
// behind it (they complete and wait in the ROB: stall.rob_full), then
// eight stores to new lines (write-allocate misses at commit).
func progStall(t *testing.T) []byte {
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RBP), x86.I(stallVA))
		a.Mov(x86.R(x86.R12), x86.I(stallIters))
		a.Xor(x86.R(x86.RBX), x86.R(x86.RBX))
		loop := a.Mark()
		a.Mov(x86.R(x86.RAX), x86.M(x86.RBP, 0x140))
		for i := 0; i < 40; i++ {
			a.Add(x86.R(x86.RAX), x86.I(1))
		}
		a.Mov(x86.R(x86.RDX), x86.M(x86.RBP, 0x1000+0x2c0))
		for i := 0; i < 90; i++ {
			a.Mov(x86.R(x86.R8), x86.I(int64(i)))
		}
		a.Add(x86.R(x86.RBX), x86.R(x86.RAX))
		a.Add(x86.R(x86.RBX), x86.R(x86.RDX))
		for i := int32(0); i < 8; i++ {
			a.Mov(x86.M(x86.RBP, 0x2000+i*64), x86.R(x86.RBX))
		}
		a.Add(x86.R(x86.RBP), x86.I(0x3000))
		a.Dec(x86.R(x86.R12))
		a.Jcc(x86.CondNE, loop)
		a.Ptlcall()
	})
	if len(code) >= pinHandlerVA-codeVA {
		t.Fatalf("stall guest is %d bytes, overlaps the event handler", len(code))
	}
	return code
}

// clockRun is one guest on one core, ready to be driven either way.
type clockRun struct {
	g    *guest
	c    *Core
	ctxs []*vm.Context
	tree *stats.Tree
	log  *evlog.Log

	// cyc is the next cycle to run; step and jump continue from it.
	cyc uint64
	// events lists the cycles at which an event upcall is raised on
	// thread 0 (the machine's timer firing), ascending.
	events []uint64

	jumped, spans uint64
	// How often each source was the one that ended a jumped span, and
	// how often an event was raised on a core that was otherwise quiet.
	byCompletion, byWake, byFetchStall, byEvent, byWatchdog int
	eventWhileQuiet                                         int
}

// newClockRun boots code on nthreads threads of one core, with the pin
// guest's event handler installed and interrupts enabled.
func newClockRun(t *testing.T, code []byte, cfg Config, nthreads int, withEvlog bool) *clockRun {
	t.Helper()
	g := buildGuest(t, code, nthreads)
	flags := mem.PTEWritable | mem.PTEUser
	for i := uint64(0); i < stallPages; i++ {
		if err := g.as.Map(stallVA+i*mem.PageSize, g.pm.AllocPage(), flags); err != nil {
			t.Fatal(err)
		}
	}
	h := x86.NewAssembler(pinHandlerVA)
	h.Pop(x86.R(x86.R10))
	h.Pop(x86.R(x86.R11))
	h.Inc(x86.R(x86.R15))
	h.Iretq()
	handler, err := h.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r := &clockRun{g: g, tree: stats.NewTree()}
	for i := 0; i < nthreads; i++ {
		ctx := g.newCtx(i)
		if i == 0 {
			if f := ctx.WriteVirtBytes(pinHandlerVA, handler); f != uops.FaultNone {
				t.Fatal(f)
			}
		}
		ctx.TrapEntry = pinHandlerVA
		ctx.KernelRSP = stackTop - 0x800 - uint64(i)*0x4000
		ctx.SetFlags(ctx.Flags() | x86.FlagIF)
		r.ctxs = append(r.ctxs, ctx)
	}
	r.c = New(0, cfg, r.ctxs, g.sys, bbcache.New(4096, r.tree, "bb"), r.tree, "ooo")
	if withEvlog {
		r.log = evlog.New(1 << 18)
		r.c.SetEventLog(r.log)
	}
	return r
}

func (r *clockRun) done() bool {
	for _, s := range r.g.sys.stopped {
		if !s {
			return false
		}
	}
	return true
}

// raise posts the events due at cyc (what Domain.Tick does when the
// clock reaches a timer deadline) and returns the next event cycle.
func (r *clockRun) raise(cyc uint64) uint64 {
	for len(r.events) > 0 && r.events[0] <= cyc {
		if r.c.NextEvent(cyc) > cyc {
			r.eventWhileQuiet++
		}
		r.g.sys.events[0] = true
		r.events = r.events[1:]
	}
	if len(r.events) > 0 {
		return r.events[0]
	}
	return never
}

// cycle runs one cycle and acknowledges delivered events, as runPin does.
func (r *clockRun) cycle(cyc uint64) error {
	err := r.c.Cycle(cyc)
	for i, ctx := range r.ctxs {
		if r.g.sys.events[i] && ctx.Kernel {
			r.g.sys.events[i] = false
		}
	}
	return err
}

// step is the reference: every cycle up to limit through Cycle.
func (r *clockRun) step(limit uint64) error {
	for ; r.cyc < limit && !r.done(); r.cyc++ {
		r.raise(r.cyc)
		if err := r.cycle(r.cyc); err != nil {
			return err
		}
	}
	return nil
}

// jump drives the core up to limit the way core.Machine.stepSim does:
// ask for the horizon, bound it by the next external event and the run's
// limit, account for the span with SkipTo, run the cycle at the horizon.
func (r *clockRun) jump(t *testing.T, limit uint64) error {
	t.Helper()
	for r.cyc < limit && !r.done() {
		next := r.raise(r.cyc)
		if h := r.c.NextEvent(r.cyc); h > r.cyc {
			r.classify(h, next)
			h = min(h, next, limit)
			if h == never {
				t.Fatalf("cycle %d: nothing scheduled and no bound", r.cyc)
			}
			if err := r.c.SkipTo(r.cyc, h, false); err != nil {
				return err
			}
			r.jumped += h - r.cyc
			r.spans++
			if r.cyc = h; r.cyc >= limit {
				break
			}
			r.raise(r.cyc)
		}
		if err := r.cycle(r.cyc); err != nil {
			return err
		}
		r.cyc++
	}
	return nil
}

// classify records which source set the horizon h of a quiet span.
func (r *clockRun) classify(h, nextEvent uint64) {
	c := r.c
	switch {
	case nextEvent < h:
		r.byEvent++
	case len(c.compl) > 0 && c.compl[0].due == h:
		r.byCompletion++
	case c.watchdogCycles > 0 && c.lastProgress+c.watchdogCycles == h:
		r.byWatchdog++
	default:
		for q := range c.iqs {
			if c.iqs[q].wakeAt == h {
				r.byWake++
				return
			}
		}
		for _, th := range c.threads {
			if th.fetchStallUntil == h {
				r.byFetchStall++
				return
			}
		}
	}
}

// outcome is everything two runs of one guest must agree on.
type outcome struct {
	cycles   uint64
	insns    int64
	stats    uint32
	evlog    uint32
	events   uint64
	robFull  int64
	iqFull   int64
	irqs     int64
	progress uint64
}

func (r *clockRun) outcome(t *testing.T) outcome {
	t.Helper()
	if err := r.c.Audit(); err != nil {
		t.Fatalf("audit after the run: %v", err)
	}
	o := outcome{cycles: r.cyc, insns: r.c.Insns(), stats: statsFNV(r.tree),
		robFull: r.c.cFetchStallROB.Value(), iqFull: r.c.cFetchStallIQ.Value(),
		irqs: r.c.cInterrupts.Value(), progress: r.c.lastProgress}
	if r.log != nil {
		if r.log.Recorded() > uint64(r.log.Cap()) {
			t.Fatalf("event ring wrapped (%d events)", r.log.Recorded())
		}
		h := fnv.New32a()
		if err := evlog.WriteText(h, r.log.Events()); err != nil {
			t.Fatal(err)
		}
		o.evlog, o.events = h.Sum32(), r.log.Recorded()
	}
	return o
}

// everyNth returns the event cycles n, 2n, ... below limit.
func everyNth(n, limit uint64) []uint64 {
	var out []uint64
	for c := n; c < limit; c += n {
		out = append(out, c)
	}
	return out
}

// TestJumpingMatchesStepping is the differential test of NextEvent and
// SkipTo: the stall guest on the K8 core and the pin guest (every
// recovery path, locked RMWs, REP MOVS) on the default, SMT(2) and K8
// cores, with event upcalls raised at fixed cycles — many of them while
// the core waits for a miss — finish on the same cycle with the same
// stats tree and the same event log as the stepped runs. The stall
// guest's run must have exercised every source of the horizon.
func TestJumpingMatchesStepping(t *testing.T) {
	for _, tc := range []struct {
		name    string
		code    func(*testing.T) []byte
		cfg     Config
		threads int
		evlog   bool
		events  []uint64
	}{
		{"stall/k8", progStall, K8Config(), 1, true, everyNth(331, 40_000)},
		{"stall/default", progStall, DefaultConfig(), 1, false, everyNth(977, 40_000)},
		{"pins/default", progPins, DefaultConfig(), 1, false, []uint64{1500, 6000}},
		{"pins/smt2", progPins, SMTConfig(2), 2, true, []uint64{1500, 3000, 6000}},
		{"pins/k8", progPins, K8Config(), 1, true, []uint64{1500, 6000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const limit = 2_000_000
			ref := newClockRun(t, tc.code(t), tc.cfg, tc.threads, tc.evlog)
			ref.events = tc.events
			if err := ref.step(limit); err != nil || !ref.done() {
				t.Fatalf("stepped run: cycle %d, done %v: %v", ref.cyc, ref.done(), err)
			}
			want := ref.outcome(t)

			run := newClockRun(t, tc.code(t), tc.cfg, tc.threads, tc.evlog)
			run.events = tc.events
			if err := run.jump(t, limit); err != nil || !run.done() {
				t.Fatalf("jumping run: cycle %d, done %v: %v", run.cyc, run.done(), err)
			}
			cyc := run.cyc
			if got := run.outcome(t); got != want {
				t.Fatalf("jumping run differs from the stepped one:\n got %+v\nwant %+v", got, want)
			}
			t.Logf("%d of %d cycles jumped in %d spans; ended by completion %d, queue wake %d, fetch stall %d, event %d; %d events raised on a quiet core",
				run.jumped, cyc, run.spans, run.byCompletion, run.byWake, run.byFetchStall, run.byEvent, run.eventWhileQuiet)
			if run.jumped == 0 {
				t.Fatal("nothing was jumped over: the test compares stepping with stepping")
			}
			if !strings.HasPrefix(tc.name, "stall/k8") {
				return
			}
			if want.robFull == 0 || want.iqFull == 0 || want.irqs == 0 {
				t.Fatalf("the stall guest must stall on a full ROB, on full issue queues and take interrupts: %+v", want)
			}
			if run.byCompletion == 0 || run.byWake == 0 || run.byFetchStall == 0 || run.byEvent == 0 || run.eventWhileQuiet == 0 {
				t.Fatal("a source of the horizon never ended a span: dropping it would go unnoticed")
			}
			if 2*run.jumped < cyc {
				t.Fatalf("only %d of %d cycles jumped: the stall guest does not stall", run.jumped, cyc)
			}
		})
	}
}

// TestWatchdogReportUnderJumping: a stall that never ends (every cache
// response delayed past the end of time, the fault injector's memdelay)
// is reported by the watchdog in the same cycle with the same words
// whether the cycles before it were stepped or jumped.
func TestWatchdogReportUnderJumping(t *testing.T) {
	report := func(jump bool) *simerr.SimError {
		r := newClockRun(t, progStall(t), K8Config(), 1, false)
		r.c.SetWatchdog(700)
		if err := r.step(900); err != nil {
			t.Fatal(err)
		}
		r.c.Hierarchy().SetResponseDelay(1 << 40)
		var err error
		if jump {
			err = r.jump(t, 100_000)
			if r.jumped == 0 || r.byWatchdog == 0 {
				t.Fatalf("jumped %d cycles, %d spans ended by the watchdog: the report was reached by stepping", r.jumped, r.byWatchdog)
			}
		} else {
			err = r.step(100_000)
		}
		se, ok := simerr.As(err)
		if !ok || se.Kind != simerr.KindLivelock {
			t.Fatalf("jump=%v: want a livelock report, got %v", jump, err)
		}
		return se
	}
	want, got := report(false), report(true)
	if got.Cycle != want.Cycle || got.Message != want.Message || got.Dump != want.Dump {
		t.Fatalf("livelock report moved:\n got cycle %d %q\nwant cycle %d %q\n(dumps equal: %v)",
			got.Cycle, got.Message, want.Cycle, want.Message, got.Dump == want.Dump)
	}
}

// TestCommitLimitIsQuietNotStuck: a core held at a co-simulation commit
// limit does nothing once its queues have filled, for as long as the
// limit stands. Jumping over that must keep the watchdog's view (such
// cycles count as progress) and every counter where stepping puts them.
func TestCommitLimitIsQuietNotStuck(t *testing.T) {
	run := func(jump bool) (outcome, uint64) {
		r := newClockRun(t, progStall(t), K8Config(), 1, false)
		r.c.SetWatchdog(2000) // the cold start alone takes 300 cycles to its first commit
		r.c.SetCommitLimit(60)
		var err error
		if jump {
			err = r.jump(t, 12_000)
		} else {
			err = r.step(12_000)
		}
		if err != nil {
			t.Fatalf("jump=%v: %v", jump, err)
		}
		if r.c.Insns() != 60 {
			t.Fatalf("jump=%v: %d instructions committed, limit 60", jump, r.c.Insns())
		}
		return r.outcome(t), r.jumped
	}
	want, _ := run(false)
	got, jumped := run(true)
	if got != want {
		t.Fatalf("held core differs:\n got %+v\nwant %+v", got, want)
	}
	if jumped < 8000 {
		t.Fatalf("%d cycles jumped; a held core should be quiet for most of 12000", jumped)
	}
}

// stalledCore returns a core at the start of a quiet span that waits for
// a load to complete.
func stalledCore(t *testing.T, audit uint64) (*clockRun, uint64) {
	t.Helper()
	r := newClockRun(t, progStall(t), K8Config(), 1, false)
	r.c.SetAudit(audit)
	for cyc := uint64(0); cyc < 20_000; cyc++ {
		if len(r.c.compl) > 0 && r.c.NextEvent(cyc) > cyc+20 {
			return r, cyc
		}
		if err := r.cycle(cyc); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("the stall guest never stalled")
	return nil, 0
}

// TestNextEventDoesNotAllocate: asking for the horizon and accounting
// for a span are on the per-cycle path.
func TestNextEventDoesNotAllocate(t *testing.T) {
	r, cyc := stalledCore(t, 0)
	allocs := testing.AllocsPerRun(100, func() {
		if h := r.c.NextEvent(cyc); h > cyc+1 {
			if err := r.c.SkipTo(cyc, cyc+1, false); err != nil {
				t.Fatal(err)
			}
			cyc++
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per NextEvent + SkipTo, want 0", allocs)
	}
}

// TestAuditorStepsAndChecksQuietSpans: with the auditor on, SkipTo runs
// every cycle of a span through Cycle and compares the outcome with its
// own account, so an audited run is the stepped reference of the same
// guest, the auditor keeps its cadence inside a span, and a prediction
// that is wrong is an invariant violation, not a different cycle count.
func TestAuditorStepsAndChecksQuietSpans(t *testing.T) {
	plain := newClockRun(t, progStall(t), K8Config(), 1, true)
	plain.events = everyNth(331, 40_000)
	if err := plain.jump(t, 2_000_000); err != nil {
		t.Fatal(err)
	}
	want := plain.outcome(t)

	audited := newClockRun(t, progStall(t), K8Config(), 1, true)
	audited.events = everyNth(331, 40_000)
	audited.c.SetAudit(64)
	if err := audited.jump(t, 2_000_000); err != nil {
		t.Fatal(err)
	}
	if got := audited.outcome(t); got != want {
		t.Fatalf("audited (stepped) run differs from the jumping one:\n got %+v\nwant %+v", got, want)
	}

	// A wrong prediction: the span is found quiet, then a completion
	// becomes due inside it after all.
	r, at := stalledCore(t, 64)
	h := r.c.NextEvent(at)
	ev := &r.c.compl[0]
	ev.due = at + 3
	r.c.threads[ev.thread].rob[ev.slot].readyCycle = at + 3
	se, ok := simerr.As(r.c.SkipTo(at, h, false))
	if !ok || se.Kind != simerr.KindInvariant || !strings.Contains(se.Message, "predicted quiet") {
		t.Fatalf("a busy span predicted quiet returned %v, want a KindInvariant report", se)
	}
	if se.Dump == "" {
		t.Fatal("the report carries no pipeline dump")
	}

	// The cadence: a pipeline corrupted in the middle of a stall is
	// reported at the next multiple of the cadence, as when every cycle
	// is stepped.
	r, at = stalledCore(t, 16)
	r.c.threads[0].ldq.n = len(r.c.threads[0].ldq.buf) + 1
	se, ok = simerr.As(r.c.SkipTo(at, r.c.NextEvent(at), false))
	if wantAt := (at + 15) / 16 * 16; !ok || se.Kind != simerr.KindInvariant || se.Cycle != wantAt {
		t.Fatalf("corruption at cycle %d reported as %v, want an invariant report at cycle %d", at, se, wantAt)
	}
}
