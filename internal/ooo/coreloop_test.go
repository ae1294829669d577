package ooo

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/evlog"
	"ptlsim/internal/simerr"
	"ptlsim/internal/stats"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// progBusyLoop never finishes within a test's cycle budget: an outer
// loop around LCG-driven unpredictable branches, a call and return,
// stores with loads that forward from them, a narrow store under a
// wide load (replays) and a locked RMW — so squashes, replays, RAS
// checkpoints and the interlock all recur for as long as it runs, from
// a handful of basic blocks that stay BB-cache resident.
func progBusyLoop(t *testing.T) []byte {
	return asmProg(t, func(a *x86.Assembler) {
		leaf, main := a.NewLabel(), a.NewLabel()
		a.Jmp(main)
		a.Bind(leaf)
		a.Lea(x86.RAX, x86.MIdx(x86.RDI, x86.RDI, 2, 1))
		a.Ret()
		a.Bind(main)
		a.Mov(x86.R(x86.RBP), x86.I(dataVA))
		a.Mov(x86.R(x86.RSI), x86.I(12345))
		a.Mov(x86.R(x86.R12), x86.I(1<<40))
		a.Mov(x86.R(x86.R13), x86.I(7))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.R12), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Mov(x86.R(x86.RAX), x86.I(0x5851F42D4C957F2D))
			a.Imul(x86.RSI, x86.R(x86.RAX))
			a.Mov(x86.R(x86.RAX), x86.I(0x14057B7EF767814F))
			a.Add(x86.R(x86.RSI), x86.R(x86.RAX))
			a.Test(x86.R(x86.RSI), x86.I(0x10000))
			a.IfElse(x86.CondNE, func() {
				a.Add(x86.R(x86.RBX), x86.I(3))
			}, func() {
				a.Sub(x86.R(x86.RBX), x86.I(1))
			})
			a.Mov(x86.R(x86.RAX), x86.R(x86.RSI))
			a.Shr(x86.R(x86.RAX), x86.I(40))
			a.Xor(x86.R(x86.RDX), x86.R(x86.RDX))
			a.Div(x86.R(x86.R13))
			a.Mov(x86.MIdx(x86.RBP, x86.RDX, 8, 0x40), x86.R(x86.RSI))
			a.Mov(x86.R(x86.R8), x86.M(x86.RBP, 0x40+24))
			a.Add(x86.R(x86.RBX), x86.R(x86.R8))
			a.Movl(x86.M(x86.RBP, 0x100), x86.R(x86.RSI))
			a.Mov(x86.R(x86.R8), x86.M(x86.RBP, 0x100))
			a.Xor(x86.R(x86.RBX), x86.R(x86.R8))
			a.Push(x86.R(x86.RBX)) // the pop forwards from this store
			a.Pop(x86.R(x86.RDI))
			a.Call(leaf)
			a.Add(x86.R(x86.RBX), x86.R(x86.RAX))
			a.Mov(x86.R(x86.R9), x86.I(1))
			a.LockXadd(x86.M(x86.RBP, 0x800), x86.R(x86.R9))
			a.Dec(x86.R(x86.R12))
		})
		a.Ptlcall()
	})
}

// busyCore boots progBusyLoop on one core with n threads and runs it
// for warm cycles.
func busyCore(t *testing.T, cfg Config, n int, warm uint64) (*Core, uint64) {
	t.Helper()
	g := buildGuest(t, progBusyLoop(t), n)
	var ctxs []*vm.Context
	for i := 0; i < n; i++ {
		ctxs = append(ctxs, g.newCtx(i))
	}
	tree := stats.NewTree()
	c := New(0, cfg, ctxs, g.sys, bbcache.New(4096, tree, "bb"), tree, "ooo")
	cyc := uint64(0)
	for ; cyc < warm; cyc++ {
		if err := c.Cycle(cyc); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	return c, cyc
}

// TestCycleSteadyStateNoAlloc: once the guest's blocks are in the BB
// cache and every queue has been through its first uses, Core.Cycle
// must not allocate — with mispredictions, load-speculation flushes,
// replays and SMT all going on.
func TestCycleSteadyStateNoAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		threads int
	}{
		{"k8", K8Config(), 1},
		{"default", DefaultConfig(), 1},
		{"smt2", SMTConfig(2), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cyc := busyCore(t, tc.cfg, tc.threads, 30_000)
			counters := []*stats.Counter{c.cMispredicts, c.cReplays, c.cForwards, c.cUops}
			var before [4]int64
			for i, ctr := range counters {
				before[i] = ctr.Value()
			}
			const cycles = 5000
			allocs := testing.AllocsPerRun(4, func() {
				for end := cyc + cycles; cyc < end; cyc++ {
					if err := c.Cycle(cyc); err != nil {
						t.Fatalf("cycle %d: %v", cyc, err)
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%v allocations per %d cycles, want 0", allocs, cycles)
			}
			for i, ctr := range counters {
				if ctr.Value() == before[i] {
					t.Errorf("the measured window saw no mispredict, replay, store forward or commit (counter %d of those)", i)
				}
			}
		})
	}
}

// TestApplyRedirectsThreadOrder: when two SMT threads recover in the
// same cycle the squashes are applied in thread order, whatever order
// they were raised in — the order shows in the free list, in DumpState
// and in the event log, all of which must repeat exactly from run to
// run. (A map keyed by thread once made it Go's random iteration
// order.)
func TestApplyRedirectsThreadOrder(t *testing.T) {
	g := buildGuest(t, progSum(t), 2)
	tree := stats.NewTree()
	c := New(0, SMTConfig(2), []*vm.Context{g.newCtx(0), g.newCtx(1)}, g.sys,
		bbcache.New(64, tree, "bb"), tree, "smt")
	l := evlog.New(64)
	c.SetEventLog(l)
	for i := 0; i < 100; i++ {
		c.now = uint64(i)
		c.threads[1].raiseRedirect(0, codeVA+0x10)
		c.threads[0].raiseRedirect(0, codeVA+0x20)
		c.applyRedirects()
		ev := l.Tail(2)
		if len(ev) != 2 || ev[0].Stage != evlog.StageRedirect || ev[1].Stage != evlog.StageRedirect {
			t.Fatalf("round %d: want two redirect events, got %+v", i, ev)
		}
		if ev[0].Thread != 0 || ev[1].Thread != 1 {
			t.Fatalf("round %d: recoveries applied for threads %d then %d, want 0 then 1",
				i, ev[0].Thread, ev[1].Thread)
		}
	}
	// The oldest redirect of a thread wins; among equals, the first.
	th := c.threads[0]
	th.raiseRedirect(9, 0x900)
	th.raiseRedirect(5, 0x500)
	th.raiseRedirect(5, 0x501)
	th.raiseRedirect(7, 0x700)
	if !th.hasRedirect || th.redirect != (redirect{afterSeq: 5, rip: 0x500}) {
		t.Fatalf("pending redirect %+v, want the first one after seq 5", th.redirect)
	}
}

// stepUntil runs cycles from cyc until ok(c) holds between two cycles.
func stepUntil(t *testing.T, c *Core, cyc uint64, ok func(c *Core) bool) uint64 {
	t.Helper()
	for end := cyc + 50_000; cyc < end; cyc++ {
		if ok(c) {
			return cyc
		}
		if err := c.Cycle(cyc); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	t.Fatal("the pipeline never reached the wanted state")
	return 0
}

// waitingOn finds an issue queue entry with a source register that is
// not ready yet.
func waitingOn(c *Core) (q, i int, p int32, ok bool) {
	for q := range c.iqs {
		for i := range c.iqs[q].ents {
			for _, p := range c.iqs[q].ents[i].src {
				if c.prf[p].ready == 0 {
					return q, i, p, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// rasHolder finds an in-flight call or return.
func rasHolder(th *thread) *robEntry {
	for i := 0; i < th.robCount; i++ {
		if e := th.robAt(i); e.hasRASSnap {
			return e
		}
	}
	return nil
}

// TestAuditCatchesCorruptedLoopState trips every check Audit makes on
// the state the core loop keeps redundantly: each case corrupts one
// piece of it in an otherwise healthy mid-run pipeline and must come
// back as a KindInvariant report naming the damage.
func TestAuditCatchesCorruptedLoopState(t *testing.T) {
	// A state with something of everything: waiting uops (one of them on
	// a register that is not ready), two or more completions due at
	// different cycles, loads and a call in flight.
	rich := func(c *Core) bool {
		th := c.threads[0]
		_, _, _, waits := waitingOn(c)
		return waits && len(c.compl) >= 2 && c.compl[0].due != c.compl[len(c.compl)-1].due &&
			th.ldq.len() > 0 && th.fetchQ.len() > 0 && rasHolder(th) != nil
	}
	cases := []struct {
		name    string
		corrupt func(c *Core)
		want    string
	}{
		{"ldq ring overfull", func(c *Core) { c.threads[0].ldq.n = len(c.threads[0].ldq.buf) + 1 }, "ldq ring"},
		{"stq ring head", func(c *Core) { c.threads[0].stq.head = -1 }, "stq ring"},
		{"ldq lost an entry", func(c *Core) { c.threads[0].ldq.popBack() }, "in-flight loads"},
		{"fetch queue ring", func(c *Core) { c.threads[0].fetchQ.n = -1 }, "fetch queue ring"},
		{"pending redirect", func(c *Core) { c.threads[0].raiseRedirect(1, codeVA) }, "left pending"},
		{"ras checkpoint handle", func(c *Core) { rasHolder(c.threads[0]).rasSnap += 3 }, "RAS checkpoint"},
		{"ras ring not rewound", func(c *Core) { c.threads[0].pred.RAS().Snapshot() }, "RAS checkpoints"},
		{"completion dropped", func(c *Core) { c.compl = c.compl[:len(c.compl)-1] }, "scheduled in 0, want 2"},
		{"completion duplicated", func(c *Core) { c.compl.push(c.compl[0]) }, "scheduled twice"},
		{"completion at the wrong cycle", func(c *Core) { c.compl[0].due += 5 }, "ready at"},
		{"completion for a stale uop", func(c *Core) { c.compl[0].seq++ }, "which holds seq"},
		{"completion heap order", func(c *Core) {
			last := &c.compl[len(c.compl)-1]
			last.due = 0
			c.threads[last.thread].rob[last.slot].readyCycle = 0
		}, "order broken"},
		{"completion heap over its bound", func(c *Core) {
			for len(c.compl) <= len(c.threads)*c.cfg.ROBSize {
				c.compl = append(c.compl, c.compl[0])
			}
		}, "exceed"},
		{"iq cached tag", func(c *Core) {
			q, i, _, _ := waitingOn(c)
			c.iqs[q].ents[i].src[0] ^= 1
		}, "cached tags"},
		{"iq cached not-before", func(c *Core) {
			q, i, _, _ := waitingOn(c)
			c.iqs[q].ents[i].earliest += 3
		}, "not-before"},
		{"iq stale entry", func(c *Core) {
			q, i, _, _ := waitingOn(c)
			c.iqs[q].ents[i].seq += 1000
		}, "which holds seq"},
		{"iq entry dropped", func(c *Core) {
			q, _, _, _ := waitingOn(c)
			c.iqs[q].ents = c.iqs[q].ents[:len(c.iqs[q].ents)-1]
		}, "scheduled in 0, want 1"},
		{"cached op class", func(c *Core) {
			e := c.threads[0].robAt(0)
			e.class = (e.class + 1) % NumClasses
		}, "cached op class"},
		{"cluster that does not execute the class", func(c *Core) {
			e := c.threads[0].robAt(0)
			for q, cl := range c.cfg.Clusters {
				if !cl.Classes.Has(e.class) {
					e.cluster = int32(q)
				}
			}
		}, "does not execute it"},
		{"iq entry in the wrong cluster", func(c *Core) {
			q, i, _, _ := waitingOn(c)
			ent := c.iqs[q].ents[i]
			e := &c.threads[ent.thread].rob[ent.rob]
			for _, other := range c.clustersOf[e.class] {
				if other != q {
					e.cluster = int32(other)
				}
			}
		}, "is in state"},
		{"lost wakeup", func(c *Core) {
			_, _, p, _ := waitingOn(c)
			c.prf[p].waiters = 0
		}, "will not wake the queue"},
		{"sleeping on an issuable uop", func(c *Core) {
			q, i, _, _ := waitingOn(c)
			for _, p := range c.iqs[q].ents[i].src {
				c.prf[p].ready = 1
			}
			c.iqs[q].wakeAt = never
		}, "sleeps until"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, cyc := busyCore(t, K8Config(), 1, 2000)
			stepUntil(t, c, cyc, rich)
			if err := c.Audit(); err != nil {
				t.Fatalf("audit of the healthy pipeline: %v", err)
			}
			tc.corrupt(c)
			err := c.Audit()
			se, ok := simerr.As(err)
			if !ok || se.Kind != simerr.KindInvariant {
				t.Fatalf("audit returned %v, want a KindInvariant report", err)
			}
			if !strings.Contains(se.Message, tc.want) {
				t.Fatalf("report %q does not mention %q", se.Message, tc.want)
			}
		})
	}
}

// TestCorruptIQTagSurfacesAsInvariant is the fault-injection form of
// the cached-tag case: with the auditor armed, a run whose issue queue
// copy of a source tag is flipped mid-flight stops at the next cycle
// with a structured invariant report (and not with a wrong result or a
// hang).
func TestCorruptIQTagSurfacesAsInvariant(t *testing.T) {
	c, cyc := busyCore(t, K8Config(), 1, 2000)
	c.SetAudit(1)
	cyc = stepUntil(t, c, cyc, func(c *Core) bool { _, _, _, ok := waitingOn(c); return ok })
	q, i, _, _ := waitingOn(c)
	c.iqs[q].ents[i].src[1] ^= 2
	err := c.Cycle(cyc)
	se, ok := simerr.As(err)
	if !ok || se.Kind != simerr.KindInvariant {
		t.Fatalf("cycle after the corruption returned %v, want a KindInvariant report", err)
	}
	if se.Dump == "" || se.Cycle != cyc {
		t.Fatalf("report lacks context: cycle %d (want %d), dump %q", se.Cycle, cyc, se.Dump)
	}
}

// TestCompletionHeapOrder: completions come off the heap by cycle, then
// thread, then program order, also after a squash has purged some.
func TestCompletionHeapOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h completionHeap
	var all []completion
	for i := 0; i < 300; i++ {
		c := completion{due: uint64(r.Intn(12)), seq: uint64(i + 1), thread: int32(r.Intn(3)), slot: int32(i)}
		h.push(c)
		all = append(all, c)
	}
	h.purge(1, 150)
	var want []completion
	for _, c := range all {
		if c.thread != 1 || c.seq <= 150 {
			want = append(want, c)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
	for i, w := range want {
		if len(h) == 0 {
			t.Fatalf("heap empty after %d of %d pops", i, len(want))
		}
		if got := h.pop(); got != w {
			t.Fatalf("pop %d = %+v, want %+v", i, got, w)
		}
	}
	if len(h) != 0 {
		t.Fatalf("%d completions left over", len(h))
	}
}

// TestRingWraps exercises the fixed-capacity ring through several laps.
func TestRingWraps(t *testing.T) {
	r := newRing[int32](5)
	next, oldest := int32(0), int32(0)
	for lap := 0; lap < 7; lap++ {
		for !r.full() {
			*r.pushBack() = next
			next++
		}
		r.popBack()
		next--
		for i := 0; i < r.len(); i++ {
			if got := *r.at(i); got != oldest+int32(i) {
				t.Fatalf("lap %d: at(%d) = %d, want %d", lap, i, got, oldest+int32(i))
			}
		}
		r.popFront()
		r.popFront()
		oldest += 2
		if !r.sound() {
			t.Fatalf("lap %d: ring unsound: head %d n %d", lap, r.head, r.n)
		}
	}
	r.clear()
	if r.len() != 0 || r.full() {
		t.Fatal("clear left entries behind")
	}
}
