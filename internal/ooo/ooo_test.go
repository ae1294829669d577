package ooo

import (
	"math/rand"
	"testing"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/mem"
	"ptlsim/internal/seqcore"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

type testSys struct {
	stopped []bool
	events  []bool
	tsc     uint64
}

func newTestSys(n int) *testSys {
	return &testSys{stopped: make([]bool, n), events: make([]bool, n)}
}

func (s *testSys) Hypercall(c *vm.Context) uops.Fault {
	c.Regs[uops.RegRAX] = 0x77
	return uops.FaultNone
}
func (s *testSys) Ptlcall(c *vm.Context) {
	s.stopped[c.ID] = true
	c.Running = false // domain shutdown halts the VCPU
}
func (s *testSys) ReadTSC(c *vm.Context) uint64    { s.tsc += 7; return s.tsc }
func (s *testSys) Cpuid(c *vm.Context)             { c.Regs[uops.RegRAX] = 0xC0DE }
func (s *testSys) EventPending(c *vm.Context) bool { return s.events[c.ID] }

const (
	codeVA   = 0x400000
	dataVA   = 0x600000
	stackVA  = 0x7F0000
	stackTop = stackVA + 0x1000
)

type guest struct {
	pm  *mem.PhysMem
	as  *mem.AddressSpace
	m   *vm.Machine
	sys *testSys
}

// buildGuest maps code/data/stacks for n VCPUs sharing one address
// space (threads get stacks at stackTop - 0x4000*id).
func buildGuest(t *testing.T, code []byte, n int) *guest {
	t.Helper()
	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	flags := mem.PTEWritable | mem.PTEUser
	for off := uint64(0); off < uint64(len(code))+mem.PageSize; off += mem.PageSize {
		if err := as.Map(codeVA+off, pm.AllocPage(), flags); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := as.Map(dataVA+uint64(i)*mem.PageSize, pm.AllocPage(), flags); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		base := uint64(stackVA) - uint64(i)*0x4000
		if err := as.Map(base, pm.AllocPage(), flags); err != nil {
			t.Fatal(err)
		}
	}
	m := &vm.Machine{PM: pm}
	ctx := vm.NewContext(m, 0)
	ctx.CR3 = as.CR3()
	if f := ctx.WriteVirtBytes(codeVA, code); f != uops.FaultNone {
		t.Fatalf("load code: %v", f)
	}
	return &guest{pm: pm, as: as, m: m, sys: newTestSys(n)}
}

func (g *guest) newCtx(id int) *vm.Context {
	ctx := vm.NewContext(g.m, id)
	ctx.CR3 = g.as.CR3()
	ctx.RIP = codeVA
	ctx.Regs[uops.RegRSP] = uint64(stackTop) - uint64(id)*0x4000
	return ctx
}

func asmProg(t *testing.T, build func(a *x86.Assembler)) []byte {
	t.Helper()
	a := x86.NewAssembler(codeVA)
	build(a)
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// runSeq executes the program functionally and returns the final ctx.
func runSeq(t *testing.T, code []byte) (*vm.Context, int64) {
	t.Helper()
	g := buildGuest(t, code, 1)
	ctx := g.newCtx(0)
	tree := stats.NewTree()
	bbc := bbcache.New(4096, tree, "bb")
	core := seqcore.New(ctx, g.sys, bbc, tree, "seq")
	for i := 0; i < 2_000_000 && !g.sys.stopped[0]; i++ {
		if _, err := core.Step(); err != nil {
			t.Fatalf("seq step: %v (rip %#x)", err, ctx.RIP)
		}
	}
	if !g.sys.stopped[0] {
		t.Fatal("seq run did not finish")
	}
	return ctx, core.Insns()
}

// runOOO executes the program on the out-of-order core.
func runOOO(t *testing.T, code []byte, cfg Config, maxCycles uint64) (*vm.Context, *Core, *stats.Tree) {
	t.Helper()
	g := buildGuest(t, code, 1)
	ctx := g.newCtx(0)
	tree := stats.NewTree()
	bbc := bbcache.New(4096, tree, "bb")
	core := New(0, cfg, []*vm.Context{ctx}, g.sys, bbc, tree, "ooo")
	for cyc := uint64(0); cyc < maxCycles && !g.sys.stopped[0]; cyc++ {
		if err := core.Cycle(cyc); err != nil {
			t.Fatalf("ooo cycle %d: %v (rip %#x)", cyc, err, ctx.RIP)
		}
	}
	if !g.sys.stopped[0] {
		t.Fatalf("ooo run did not finish (rip %#x, insns %d)", ctx.RIP, core.Insns())
	}
	return ctx, core, tree
}

// lockstep asserts the OOO core commits exactly the architectural
// state the functional core produces — the paper's integrated
// simulation correctness property.
func lockstep(t *testing.T, code []byte, cfg Config) (*Core, *stats.Tree) {
	t.Helper()
	want, wantInsns := runSeq(t, code)
	got, core, tree := runOOO(t, code, cfg, 3_000_000)
	if !vm.ArchEqual(want, got) {
		t.Fatalf("architectural divergence: %s", vm.DiffArch(want, got))
	}
	if core.Insns() != wantInsns {
		t.Fatalf("insn count: ooo %d vs seq %d", core.Insns(), wantInsns)
	}
	return core, tree
}

func progSum(t *testing.T) []byte {
	return asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(0))
		a.Mov(x86.R(x86.RCX), x86.I(500))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Add(x86.R(x86.RAX), x86.R(x86.RCX))
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
}

func TestLockstepSumLoop(t *testing.T) {
	core, _ := lockstep(t, progSum(t), DefaultConfig())
	if core.Ctx(0).Regs[uops.RegRAX] != 125250 {
		t.Fatalf("sum = %d", core.Ctx(0).Regs[uops.RegRAX])
	}
}

func TestLockstepSumLoopK8(t *testing.T) {
	lockstep(t, progSum(t), K8Config())
}

func TestLockstepFib(t *testing.T) {
	code := asmProg(t, func(a *x86.Assembler) {
		fib := a.NewLabel()
		start := a.NewLabel()
		a.Jmp(start)
		a.Bind(fib)
		base := a.NewLabel()
		a.Cmp(x86.R(x86.RDI), x86.I(2))
		a.Jcc(x86.CondL, base)
		a.Push(x86.R(x86.RDI))
		a.Sub(x86.R(x86.RDI), x86.I(1))
		a.Call(fib)
		a.Pop(x86.R(x86.RDI))
		a.Push(x86.R(x86.RAX))
		a.Sub(x86.R(x86.RDI), x86.I(2))
		a.Call(fib)
		a.Pop(x86.R(x86.RBX))
		a.Add(x86.R(x86.RAX), x86.R(x86.RBX))
		a.Ret()
		a.Bind(base)
		a.Mov(x86.R(x86.RAX), x86.R(x86.RDI))
		a.Ret()
		a.Bind(start)
		a.Mov(x86.R(x86.RDI), x86.I(14))
		a.Call(fib)
		a.Ptlcall()
	})
	core, _ := lockstep(t, code, DefaultConfig())
	if core.Ctx(0).Regs[uops.RegRAX] != 377 {
		t.Fatalf("fib(14) = %d", core.Ctx(0).Regs[uops.RegRAX])
	}
}

func TestLockstepMemoryAndString(t *testing.T) {
	code := asmProg(t, func(a *x86.Assembler) {
		// Fill a buffer, copy it, checksum it.
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.Mov(x86.R(x86.RAX), x86.I(0x0102030405060708))
		a.Mov(x86.R(x86.RCX), x86.I(64))
		a.RepStos(8)
		a.Mov(x86.R(x86.RSI), x86.I(dataVA))
		a.Mov(x86.R(x86.RDI), x86.I(dataVA+0x1000))
		a.Mov(x86.R(x86.RCX), x86.I(512))
		a.RepMovs(1)
		// Checksum.
		a.Mov(x86.R(x86.RBX), x86.I(0))
		a.Mov(x86.R(x86.RSI), x86.I(dataVA+0x1000))
		a.Mov(x86.R(x86.RCX), x86.I(512))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Movzx(x86.RDX, x86.M(x86.RSI, 0), 1)
			a.Add(x86.R(x86.RBX), x86.R(x86.RDX))
			a.Inc(x86.R(x86.RSI))
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	core, _ := lockstep(t, code, K8Config())
	// 512 bytes of repeating 8..1 pattern: 64 * 36 = 2304.
	if core.Ctx(0).Regs[uops.RegRBX] != 2304 {
		t.Fatalf("checksum = %d", core.Ctx(0).Regs[uops.RegRBX])
	}
}

func TestLockstepAtomics(t *testing.T) {
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.Mov(x86.M(x86.RDI, 0), x86.I(100))
		a.Mov(x86.R(x86.RCX), x86.I(50))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Mov(x86.R(x86.RBX), x86.I(1))
			a.LockXadd(x86.M(x86.RDI, 0), x86.R(x86.RBX))
			a.LockInc(x86.M(x86.RDI, 8))
			a.Dec(x86.R(x86.RCX))
		})
		a.Mov(x86.R(x86.R8), x86.M(x86.RDI, 0))
		a.Mov(x86.R(x86.R9), x86.M(x86.RDI, 8))
		a.Ptlcall()
	})
	core, _ := lockstep(t, code, DefaultConfig())
	if core.Ctx(0).Regs[uops.RegR8] != 150 || core.Ctx(0).Regs[uops.RegR9] != 50 {
		t.Fatalf("atomics: %d %d", core.Ctx(0).Regs[uops.RegR8], core.Ctx(0).Regs[uops.RegR9])
	}
}

func TestLockstepUnpredictableBranches(t *testing.T) {
	// Branch direction depends on an LCG — mispredictions guaranteed.
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RSI), x86.I(12345)) // seed
		a.Mov(x86.R(x86.RBX), x86.I(0))
		a.Mov(x86.R(x86.RCX), x86.I(400))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			// rsi = rsi*6364136223846793005 + 1442695040888963407 (mod 2^64)
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
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	core, tree := lockstep(t, code, K8Config())
	_ = core
	if tree.Lookup("ooo.mispredicts").Value() == 0 {
		t.Fatal("expected some mispredictions on random branches")
	}
}

func TestLockstepDivAndFlags(t *testing.T) {
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RBX), x86.I(0))
		a.Mov(x86.R(x86.RCX), x86.I(1))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(60))
			return x86.CondLE
		}, func() {
			a.Mov(x86.R(x86.RAX), x86.I(1000000007))
			a.Cqo()
			a.Idiv(x86.R(x86.RCX))
			a.Add(x86.R(x86.RBX), x86.R(x86.RDX)) // accumulate remainders
			a.Inc(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	lockstep(t, code, DefaultConfig())
}

func TestLockstepFP(t *testing.T) {
	code := asmProg(t, func(a *x86.Assembler) {
		// Numerically integrate sum 1/k for k=1..50 and truncate *1e6.
		a.Mov(x86.R(x86.RAX), x86.I(0))
		a.Cvtsi2sd(x86.XMM0, x86.R(x86.RAX)) // acc = 0
		a.Mov(x86.R(x86.RCX), x86.I(1))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(50))
			return x86.CondLE
		}, func() {
			a.Mov(x86.R(x86.RAX), x86.I(1))
			a.Cvtsi2sd(x86.XMM1, x86.R(x86.RAX))
			a.Cvtsi2sd(x86.XMM2, x86.R(x86.RCX))
			a.Divsd(x86.XMM1, x86.R(x86.XMM2))
			a.Addsd(x86.XMM0, x86.R(x86.XMM1))
			a.Inc(x86.R(x86.RCX))
		})
		a.Mov(x86.R(x86.RAX), x86.I(1000000))
		a.Cvtsi2sd(x86.XMM3, x86.R(x86.RAX))
		a.Mulsd(x86.XMM0, x86.R(x86.XMM3))
		a.Cvttsd2si(x86.RBX, x86.R(x86.XMM0))
		a.Ptlcall()
	})
	core, _ := lockstep(t, code, DefaultConfig())
	// H(50) = 4.4992... -> 4499205
	if got := core.Ctx(0).Regs[uops.RegRBX]; got != 4499205 {
		t.Fatalf("harmonic sum = %d", got)
	}
}

// Random straight-line programs with data-dependent cmov/setcc: the
// strongest co-simulation property test.
func TestLockstepRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	regs := []x86.Reg{x86.RAX, x86.RBX, x86.RCX, x86.RDX, x86.RSI, x86.RDI,
		x86.R8, x86.R9, x86.R10, x86.R11}
	for trial := 0; trial < 25; trial++ {
		code := asmProg(t, func(a *x86.Assembler) {
			// Seed registers.
			for _, reg := range regs {
				a.Mov(x86.R(reg), x86.I(r.Int63()-r.Int63()))
			}
			a.Mov(x86.R(x86.RBP), x86.I(dataVA))
			for i := 0; i < 120; i++ {
				d := regs[r.Intn(len(regs))]
				s := regs[r.Intn(len(regs))]
				switch r.Intn(12) {
				case 0:
					a.Add(x86.R(d), x86.R(s))
				case 1:
					a.Sub(x86.R(d), x86.R(s))
				case 2:
					a.Xor(x86.R(d), x86.R(s))
				case 3:
					a.And(x86.R(d), x86.I(int64(int32(r.Int63()))))
				case 4:
					a.Or(x86.R(d), x86.R(s))
				case 5:
					a.Imul(d, x86.R(s))
				case 6:
					a.Shl(x86.R(d), x86.I(int64(r.Intn(63)+1)))
				case 7:
					a.Cmp(x86.R(d), x86.R(s))
					a.Cmovcc(x86.Cond(r.Intn(16)), d, x86.R(s))
				case 8:
					a.Test(x86.R(d), x86.R(s))
					a.Setcc(x86.Cond(r.Intn(16)), x86.R(d))
				case 9:
					a.Mov(x86.M(x86.RBP, int32(r.Intn(256)*8)), x86.R(s))
				case 10:
					a.Mov(x86.R(d), x86.M(x86.RBP, int32(r.Intn(256)*8)))
				case 11:
					a.Adc(x86.R(d), x86.R(s))
				}
			}
			a.Ptlcall()
		})
		want, _ := runSeq(t, code)
		got, _, _ := runOOO(t, code, DefaultConfig(), 1_000_000)
		if !vm.ArchEqual(want, got) {
			t.Fatalf("trial %d diverged: %s", trial, vm.DiffArch(want, got))
		}
	}
}

func TestSMTLockedSharedCounter(t *testing.T) {
	// Two SMT threads each lock-xadd a shared counter 200 times; no
	// update may be lost.
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.Mov(x86.R(x86.RCX), x86.I(200))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Mov(x86.R(x86.RBX), x86.I(1))
			a.LockXadd(x86.M(x86.RDI, 0), x86.R(x86.RBX))
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	g := buildGuest(t, code, 2)
	g.sys = newTestSys(2)
	ctx0, ctx1 := g.newCtx(0), g.newCtx(1)
	tree := stats.NewTree()
	bbc := bbcache.New(4096, tree, "bb")
	core := New(0, SMTConfig(2), []*vm.Context{ctx0, ctx1}, g.sys, bbc, tree, "smt")
	for cyc := uint64(0); cyc < 2_000_000; cyc++ {
		if g.sys.stopped[0] && g.sys.stopped[1] {
			break
		}
		if err := core.Cycle(cyc); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
	}
	if !g.sys.stopped[0] || !g.sys.stopped[1] {
		t.Fatalf("threads did not finish: %v (rips %#x %#x)", g.sys.stopped, ctx0.RIP, ctx1.RIP)
	}
	val, f := ctx0.ReadVirt(dataVA, 8)
	if f != uops.FaultNone {
		t.Fatal(f)
	}
	if val != 400 {
		t.Fatalf("shared counter = %d, want 400 (lost updates)", val)
	}
}

func TestBankConflictsCounted(t *testing.T) {
	// Strided loads hitting the same bank across lines.
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RSI), x86.I(dataVA))
		a.Mov(x86.R(x86.RCX), x86.I(200))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			// Two loads in the same cycle window, same bank (offset 64
			// apart = same bank, different lines).
			a.Mov(x86.R(x86.RAX), x86.M(x86.RSI, 0))
			a.Mov(x86.R(x86.RBX), x86.M(x86.RSI, 64))
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	cfg := K8Config()
	_, _, banked := runOOO(t, code, cfg, 1_000_000)
	if banked.Lookup("ooo.bank_replays").Value() == 0 {
		t.Fatal("expected bank conflict replays with banking enforced")
	}
	// The same loads on an ideal unbanked L1: no conflict, and no cycle
	// the conflicts cost.
	cfg.EnforceBanking = false
	_, _, ideal := runOOO(t, code, cfg, 1_000_000)
	if n := ideal.Lookup("ooo.bank_replays").Value(); n != 0 {
		t.Fatalf("%d bank conflict replays without banking", n)
	}
	if b, i := banked.Lookup("ooo.cycles").Value(), ideal.Lookup("ooo.cycles").Value(); i > b {
		t.Fatalf("unbanked L1 took %d cycles, banked %d", i, b)
	}
}

func TestEventDeliveryInterruptsOOO(t *testing.T) {
	// The guest spins; an event arrives and must be delivered precisely
	// (handler records, then iretq resumes the spin, which then exits).
	const handlerVA = codeVA + 0x800
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RBX), x86.I(0))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.R15), x86.I(0)) // set by handler
			return x86.CondE
		}, func() {
			a.Inc(x86.R(x86.RBX))
		})
		a.Ptlcall()
	})
	h := x86.NewAssembler(handlerVA)
	h.Pop(x86.R(x86.R10)) // vector
	h.Pop(x86.R(x86.R11))
	h.Mov(x86.R(x86.R15), x86.I(1))
	h.Iretq()
	handler, err := h.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	g := buildGuest(t, code, 1)
	ctx := g.newCtx(0)
	if f := ctx.WriteVirtBytes(handlerVA, handler); f != uops.FaultNone {
		t.Fatal(f)
	}
	ctx.TrapEntry = handlerVA
	ctx.KernelRSP = stackTop - 0x800
	ctx.SetFlags(ctx.Flags() | x86.FlagIF)
	tree := stats.NewTree()
	bbc := bbcache.New(4096, tree, "bb")
	core := New(0, DefaultConfig(), []*vm.Context{ctx}, g.sys, bbc, tree, "ooo")
	for cyc := uint64(0); cyc < 500_000 && !g.sys.stopped[0]; cyc++ {
		if cyc == 2000 {
			g.sys.events[0] = true
		}
		if err := core.Cycle(cyc); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		if g.sys.events[0] && ctx.Kernel {
			g.sys.events[0] = false // auto-ack on entry
		}
	}
	if !g.sys.stopped[0] {
		t.Fatalf("did not finish; rip=%#x r15=%d", ctx.RIP, ctx.Regs[uops.RegR15])
	}
	if ctx.Regs[uops.RegR10] != vm.VecEvent {
		t.Fatalf("vector = %d", ctx.Regs[uops.RegR10])
	}
	if tree.Lookup("ooo.interrupts").Value() == 0 {
		t.Fatal("interrupt not counted")
	}
}

func TestOOOPageFaultPrecision(t *testing.T) {
	const handlerVA = codeVA + 0x800
	code := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RBX), x86.I(0x11))
		a.Mov(x86.R(x86.R13), x86.I(0xDEAD0000))
		a.Mov(x86.R(x86.RCX), x86.M(x86.R13, 0)) // faults (3 bytes: 49 8B 0D + disp?)
		a.Mov(x86.R(x86.R9), x86.I(0x22))
		a.Ptlcall()
	})
	// Determine the faulting instruction length by decoding.
	h := x86.NewAssembler(handlerVA)
	h.Pop(x86.R(x86.R10))
	h.Pop(x86.R(x86.R11))
	h.Add(x86.M(x86.RSP, 0), x86.I(3)) // mov rcx,[r13+0] encodes as 3 bytes + disp8 = 4? adjusted below
	h.Iretq()
	// mov rcx, [r13] requires disp8=0 (base R13): 49 8B 4D 00 = 4 bytes.
	h2 := x86.NewAssembler(handlerVA)
	h2.Pop(x86.R(x86.R10))
	h2.Pop(x86.R(x86.R11))
	h2.Add(x86.M(x86.RSP, 0), x86.I(4))
	h2.Iretq()
	handler, err := h2.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	_ = h
	g := buildGuest(t, code, 1)
	ctx := g.newCtx(0)
	ctx.WriteVirtBytes(handlerVA, handler)
	ctx.TrapEntry = handlerVA
	ctx.KernelRSP = stackTop - 0x800
	tree := stats.NewTree()
	bbc := bbcache.New(4096, tree, "bb")
	core := New(0, DefaultConfig(), []*vm.Context{ctx}, g.sys, bbc, tree, "ooo")
	for cyc := uint64(0); cyc < 500_000 && !g.sys.stopped[0]; cyc++ {
		if err := core.Cycle(cyc); err != nil {
			t.Fatalf("cycle: %v", err)
		}
	}
	if !g.sys.stopped[0] {
		t.Fatalf("did not finish (rip %#x)", ctx.RIP)
	}
	if ctx.Regs[uops.RegR10] != vm.VecPF || ctx.Regs[uops.RegR11] != 0xDEAD0000 {
		t.Fatalf("fault info: vec=%d addr=%#x", ctx.Regs[uops.RegR10], ctx.Regs[uops.RegR11])
	}
	if ctx.Regs[uops.RegR9] != 0x22 {
		t.Fatal("did not resume after fault")
	}
}

func TestIPCReasonable(t *testing.T) {
	// A dependent-chain program should have IPC well below a wide
	// independent one.
	chain := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(1))
		a.Mov(x86.R(x86.RCX), x86.I(2000))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Imul(x86.RAX, x86.R(x86.RAX)) // serial dependency, 3-cycle latency
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	wide := asmProg(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RCX), x86.I(2000))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Add(x86.R(x86.RAX), x86.I(1))
			a.Add(x86.R(x86.RBX), x86.I(1))
			a.Add(x86.R(x86.RSI), x86.I(1))
			a.Add(x86.R(x86.RDI), x86.I(1))
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	_, c1, t1 := runOOO(t, chain, DefaultConfig(), 2_000_000)
	_, c2, t2 := runOOO(t, wide, DefaultConfig(), 2_000_000)
	ipc1 := float64(c1.Insns()) / float64(t1.Lookup("ooo.cycles").Value())
	ipc2 := float64(c2.Insns()) / float64(t2.Lookup("ooo.cycles").Value())
	if ipc2 <= ipc1 {
		t.Fatalf("wide IPC %.2f should exceed chain IPC %.2f", ipc2, ipc1)
	}
	if ipc1 > 1.2 {
		t.Fatalf("serial imul chain IPC %.2f implausibly high", ipc1)
	}
}
