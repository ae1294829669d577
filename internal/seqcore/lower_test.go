package seqcore

import (
	"testing"

	"ptlsim/internal/evlog"
	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// countingObserver counts the upcalls of the functional core.
type countingObserver struct{ insns, loads, stores, branches, blocks int }

func (o *countingObserver) OnInsn(uint64, bool, int)                       { o.insns++ }
func (o *countingObserver) OnLoad(uint64, uint64, uint8)                   { o.loads++ }
func (o *countingObserver) OnStore(uint64, uint64, uint8)                  { o.stores++ }
func (o *countingObserver) OnBranch(uint64, bool, uint64, uops.BranchKind) { o.branches++ }
func (o *countingObserver) OnFetchBlock(uint64, uint64)                    { o.blocks++ }
func (o *countingObserver) OnAddressSpaceSwitch(uint64)                    {}

// TestStepSteadyStateNoAlloc is the functional engine's sibling of
// ooo.TestCycleSteadyStateNoAlloc: once a guest's blocks are cached and
// lowered, Step allocates nothing, with or without an observer or an
// event log attached. The loop stores, loads, writes flags, calls,
// pushes and pops, and runs a REP MOVS, so every kind of step and the
// register-saving and store-committing steps are in the measured
// window.
func TestStepSteadyStateNoAlloc(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		fn := a.NewLabel()
		a.Mov(x86.R(x86.R12), x86.I(1<<40))
		a.Mov(x86.R(x86.RBX), x86.I(dataVA))
		loop := a.Mark()
		a.Mov(x86.M(x86.RBX, 8), x86.R(x86.R12))
		a.Add(x86.R(x86.RAX), x86.M(x86.RBX, 8))
		a.Add(x86.M(x86.RBX, 16), x86.I(3)) // load, add, store: saves its registers
		a.Call(fn)
		a.Lea(x86.RSI, x86.M(x86.RBX, 0))
		a.Lea(x86.RDI, x86.M(x86.RBX, 0x100))
		a.Mov(x86.R(x86.RCX), x86.I(4))
		a.RepMovs(8)
		a.Dec(x86.R(x86.R12))
		a.Jcc(x86.CondNE, loop)
		a.Ptlcall()
		a.Bind(fn)
		a.Push(x86.R(x86.RAX))
		a.Pop(x86.R(x86.RDX))
		a.Ret()
	})
	for _, tc := range []struct {
		name   string
		attach func(c *Core)
	}{
		{"plain", func(*Core) {}},
		{"observer", func(c *Core) { c.Obs = &countingObserver{} }},
		{"evlog", func(c *Core) { c.SetEventLog(evlog.New(1<<10), 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, code, false)
			tc.attach(e.core)
			step := func() {
				for i := 0; i < 2000; i++ {
					if _, err := e.core.Step(); err != nil {
						t.Fatal(err)
					}
				}
			}
			step() // decode, cache and lower every block
			counters := []string{"seq.insns", "seq.loads", "seq.stores", "seq.taken_branches"}
			before := make([]int64, len(counters))
			for i, path := range counters {
				before[i] = e.tree.Lookup(path).Value()
			}
			if allocs := testing.AllocsPerRun(4, step); allocs != 0 {
				t.Errorf("%v allocations per 2000 steps, want 0", allocs)
			}
			for i, path := range counters {
				if e.tree.Lookup(path).Value() == before[i] {
					t.Errorf("%s did not move in the measured window", path)
				}
			}
			if e.sys.stopped {
				t.Fatal("the loop ended inside the measured window")
			}
		})
	}
}

// TestMaxInsnsPerStepMatchesWholeBlocks steps a program one instruction
// at a time and in whole blocks: a bounded Step commits at most one
// instruction (a REP entry check is none, so a check that skips its
// body commits nothing, and one that falls through runs on into a body
// iteration), and both runs end in the same state with the same
// counters.
func TestMaxInsnsPerStepMatchesWholeBlocks(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RBX), x86.I(dataVA))
		a.Mov(x86.M(x86.RBX, 0), x86.I(7))
		a.Lea(x86.RSI, x86.M(x86.RBX, 0))
		a.Lea(x86.RDI, x86.M(x86.RBX, 0x40))
		a.Mov(x86.R(x86.RCX), x86.I(3))
		a.RepMovs(8)
		a.Add(x86.R(x86.RAX), x86.M(x86.RBX, 0x40))
		a.Mov(x86.R(x86.RCX), x86.I(0))
		a.RepMovs(8) // RCX = 0: the check skips the body
		a.Ptlcall()
	})
	whole := newEnv(t, code, false)
	whole.run(t, 100)
	single := newEnv(t, code, false)
	single.core.MaxInsnsPerStep = 1
	for i := 0; !single.sys.stopped; i++ {
		if i == 100 {
			t.Fatal("program did not finish in 100 bounded steps")
		}
		before := single.core.Insns()
		if _, err := single.core.Step(); err != nil {
			t.Fatal(err)
		}
		if n := single.core.Insns() - before; n > 1 {
			t.Fatalf("step %d at rip %#x committed %d instructions", i, single.ctx.RIP, n)
		}
	}
	if single.ctx.Regs != whole.ctx.Regs || single.ctx.RIP != whole.ctx.RIP {
		t.Fatalf("bounded run ended at rip %#x, whole-block run at %#x (registers equal: %v)",
			single.ctx.RIP, whole.ctx.RIP, single.ctx.Regs == whole.ctx.Regs)
	}
	for _, path := range []string{"seq.insns", "seq.uops", "seq.loads", "seq.stores", "seq.branches", "seq.taken_branches"} {
		if a, b := single.tree.Lookup(path).Value(), whole.tree.Lookup(path).Value(); a != b {
			t.Errorf("%s: %d bounded, %d in whole blocks", path, a, b)
		}
	}
}
