package seqcore

import (
	"testing"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/mem"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// testSys is a minimal vm.System: no events, hypercall writes a marker,
// ptlcall sets a stop flag.
type testSys struct {
	stopped    bool
	hypercalls int
	tsc        uint64
}

func (s *testSys) Hypercall(c *vm.Context) uops.Fault {
	s.hypercalls++
	c.Regs[uops.RegRAX] = 0x1234
	return uops.FaultNone
}
func (s *testSys) Ptlcall(c *vm.Context)            { s.stopped = true }
func (s *testSys) ReadTSC(c *vm.Context) uint64     { s.tsc += 100; return s.tsc }
func (s *testSys) Cpuid(c *vm.Context)              { c.Regs[uops.RegRAX] = 0xC0DE }
func (s *testSys) EventPending(c *vm.Context) bool  { return false }

// env builds a guest with code at codeVA, a stack, and a scratch data
// page, all user-accessible.
type env struct {
	pm   *mem.PhysMem
	as   *mem.AddressSpace
	ctx  *vm.Context
	sys  *testSys
	core *Core
	tree *stats.Tree
}

const (
	codeVA  = 0x400000
	dataVA  = 0x600000
	stackVA = 0x7F0000 // stack occupies the page below stackTop
	stackTop = stackVA + 0x1000
)

func newEnv(t *testing.T, code []byte, kernel bool) *env {
	t.Helper()
	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	flags := mem.PTEWritable | mem.PTEUser
	// Map enough pages for code.
	for off := uint64(0); off < uint64(len(code))+mem.PageSize; off += mem.PageSize {
		if err := as.Map(codeVA+off, pm.AllocPage(), flags); err != nil {
			t.Fatal(err)
		}
	}
	for _, va := range []uint64{dataVA, dataVA + 0x1000, stackVA} {
		if err := as.Map(va, pm.AllocPage(), flags); err != nil {
			t.Fatal(err)
		}
	}
	m := &vm.Machine{PM: pm}
	ctx := vm.NewContext(m, 0)
	ctx.CR3 = as.CR3()
	ctx.Kernel = kernel
	ctx.RIP = codeVA
	ctx.Regs[uops.RegRSP] = stackTop
	if f := ctx.WriteVirtBytes(codeVA, code); f != uops.FaultNone {
		t.Fatalf("loading code: %v", f)
	}
	sys := &testSys{}
	tree := stats.NewTree()
	bbc := bbcache.New(1024, tree, "bb")
	core := New(ctx, sys, bbc, tree, "seq")
	return &env{pm: pm, as: as, ctx: ctx, sys: sys, core: core, tree: tree}
}

// run steps until ptlcall stops the program or maxSteps elapse.
func (e *env) run(t *testing.T, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if e.sys.stopped {
			return
		}
		if _, err := e.core.Step(); err != nil {
			t.Fatalf("step %d: %v (rip=%#x)", i, err, e.ctx.RIP)
		}
	}
	if !e.sys.stopped {
		t.Fatalf("program did not finish in %d steps (rip=%#x)", maxSteps, e.ctx.RIP)
	}
}

// asm assembles a program at codeVA; the program should end with Ptlcall.
func asm(t *testing.T, build func(a *x86.Assembler)) []byte {
	t.Helper()
	a := x86.NewAssembler(codeVA)
	build(a)
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func TestArithLoop(t *testing.T) {
	// sum 1..100 into RAX.
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(0))
		a.Mov(x86.R(x86.RCX), x86.I(100))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.RCX), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Add(x86.R(x86.RAX), x86.R(x86.RCX))
			a.Dec(x86.R(x86.RCX))
		})
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 2000)
	if got := e.ctx.Regs[uops.RegRAX]; got != 5050 {
		t.Fatalf("sum = %d, want 5050", got)
	}
	if e.core.Insns() < 300 {
		t.Fatalf("instruction count %d seems too low", e.core.Insns())
	}
}

func TestMemoryOps(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.Mov(x86.R(x86.RAX), x86.I(0x1122334455667788))
		a.Mov(x86.M(x86.RDI, 0), x86.R(x86.RAX))
		a.Mov(x86.R(x86.RBX), x86.M(x86.RDI, 0))
		// Subword ops.
		a.Movb(x86.M(x86.RDI, 8), x86.I(0x7F))
		a.Movzx(x86.RCX, x86.M(x86.RDI, 8), 1)
		a.Movb(x86.M(x86.RDI, 9), x86.I(-1))
		a.Movsx(x86.RDX, x86.M(x86.RDI, 9), 1)
		// Indexed addressing.
		a.Mov(x86.R(x86.RSI), x86.I(2))
		a.Movl(x86.MIdx(x86.RDI, x86.RSI, 4, 16), x86.I(0xABCD))
		a.Movl(x86.R(x86.R8), x86.MIdx(x86.RDI, x86.RSI, 4, 16))
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	if e.ctx.Regs[uops.RegRBX] != 0x1122334455667788 {
		t.Fatalf("rbx = %#x", e.ctx.Regs[uops.RegRBX])
	}
	if e.ctx.Regs[uops.RegRCX] != 0x7F {
		t.Fatalf("movzx = %#x", e.ctx.Regs[uops.RegRCX])
	}
	if e.ctx.Regs[uops.RegRDX] != ^uint64(0) {
		t.Fatalf("movsx = %#x", e.ctx.Regs[uops.RegRDX])
	}
	if e.ctx.Regs[uops.RegR8] != 0xABCD {
		t.Fatalf("indexed = %#x", e.ctx.Regs[uops.RegR8])
	}
}

func TestSubwordRegisterSemantics(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(0x1122334455667788))
		a.Movb(x86.R(x86.RAX), x86.I(0x99)) // merges low byte
		a.Mov(x86.R(x86.RBX), x86.I(0x1122334455667788))
		a.Movl(x86.R(x86.RBX), x86.I(0x42)) // zeroes upper half
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	if e.ctx.Regs[uops.RegRAX] != 0x1122334455667799 {
		t.Fatalf("8-bit write = %#x", e.ctx.Regs[uops.RegRAX])
	}
	if e.ctx.Regs[uops.RegRBX] != 0x42 {
		t.Fatalf("32-bit write = %#x", e.ctx.Regs[uops.RegRBX])
	}
}

func TestCallRetRecursion(t *testing.T) {
	// fib(12) via naive recursion.
	code := asm(t, func(a *x86.Assembler) {
		fib := a.NewLabel()
		start := a.NewLabel()
		a.Jmp(start)
		a.Bind(fib) // arg in RDI, result in RAX
		base := a.NewLabel()
		rec := a.NewLabel()
		a.Cmp(x86.R(x86.RDI), x86.I(2))
		a.Jcc(x86.CondL, base)
		a.Jmp(rec)
		a.Bind(base)
		a.Mov(x86.R(x86.RAX), x86.R(x86.RDI))
		a.Ret()
		a.Bind(rec)
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
		a.Bind(start)
		a.Mov(x86.R(x86.RDI), x86.I(12))
		a.Call(fib)
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100000)
	if e.ctx.Regs[uops.RegRAX] != 144 {
		t.Fatalf("fib(12) = %d, want 144", e.ctx.Regs[uops.RegRAX])
	}
}

func TestMulDiv(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(1234567))
		a.Mov(x86.R(x86.RBX), x86.I(7654321))
		a.Mul(x86.R(x86.RBX)) // RDX:RAX = product
		a.Mov(x86.R(x86.R8), x86.R(x86.RAX))
		a.Mov(x86.R(x86.R9), x86.R(x86.RDX))
		// Divide back.
		a.Div(x86.R(x86.RBX))
		a.Mov(x86.R(x86.R10), x86.R(x86.RAX)) // quotient
		a.Mov(x86.R(x86.R11), x86.R(x86.RDX)) // remainder
		// Signed: -100 / 7.
		a.Mov(x86.R(x86.RAX), x86.I(-100))
		a.Cqo()
		a.Mov(x86.R(x86.RCX), x86.I(7))
		a.Idiv(x86.R(x86.RCX))
		a.Mov(x86.R(x86.R12), x86.R(x86.RAX))
		a.Mov(x86.R(x86.R13), x86.R(x86.RDX))
		// imul 2-op and 3-op.
		a.Mov(x86.R(x86.RSI), x86.I(-6))
		a.Imul3(x86.RSI, x86.R(x86.RSI), 7)
		a.Imul3(x86.R14, x86.R(x86.RSI), -2)
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	product := uint64(1234567) * uint64(7654321)
	if e.ctx.Regs[uops.RegR8] != product || e.ctx.Regs[uops.RegR9] != 0 {
		t.Fatalf("mul = %#x:%#x", e.ctx.Regs[uops.RegR9], e.ctx.Regs[uops.RegR8])
	}
	if e.ctx.Regs[uops.RegR10] != 1234567 || e.ctx.Regs[uops.RegR11] != 0 {
		t.Fatalf("div = %d rem %d", e.ctx.Regs[uops.RegR10], e.ctx.Regs[uops.RegR11])
	}
	if int64(e.ctx.Regs[uops.RegR12]) != -14 || int64(e.ctx.Regs[uops.RegR13]) != -2 {
		t.Fatalf("idiv: q=%d r=%d", int64(e.ctx.Regs[uops.RegR12]), int64(e.ctx.Regs[uops.RegR13]))
	}
	if int64(e.ctx.Regs[uops.RegRSI]) != -42 || int64(e.ctx.Regs[uops.RegR14]) != 84 {
		t.Fatalf("imul: %d %d", int64(e.ctx.Regs[uops.RegRSI]), int64(e.ctx.Regs[uops.RegR14]))
	}
}

func TestRepMovs(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		// Fill source with a pattern using rep stosq, then copy with
		// rep movsb, then verify a byte.
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.Mov(x86.R(x86.RAX), x86.I(0x0807060504030201))
		a.Mov(x86.R(x86.RCX), x86.I(16)) // 128 bytes
		a.RepStos(8)
		a.Mov(x86.R(x86.RSI), x86.I(dataVA))
		a.Mov(x86.R(x86.RDI), x86.I(dataVA+0x1000))
		a.Mov(x86.R(x86.RCX), x86.I(128))
		a.RepMovs(1)
		// RCX must be 0 afterwards; RSI/RDI advanced.
		a.Mov(x86.R(x86.R8), x86.R(x86.RCX))
		a.Mov(x86.R(x86.R9), x86.R(x86.RSI))
		a.Mov(x86.R(x86.R10), x86.R(x86.RDI))
		// rep with rcx=0 must be a no-op.
		a.Mov(x86.R(x86.RCX), x86.I(0))
		a.Mov(x86.R(x86.RSI), x86.I(dataVA))
		a.Mov(x86.R(x86.RDI), x86.I(dataVA+0x800))
		a.RepMovs(8)
		a.Movzx(x86.R11, x86.MAbs(dataVA+0x800), 1) // untouched (zero page)
		a.Movzx(x86.R12, x86.MAbs(dataVA+0x1000+77), 1)
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 3000)
	if e.ctx.Regs[uops.RegR8] != 0 {
		t.Fatalf("rcx after rep = %d", e.ctx.Regs[uops.RegR8])
	}
	if e.ctx.Regs[uops.RegR9] != dataVA+128 || e.ctx.Regs[uops.RegR10] != dataVA+0x1000+128 {
		t.Fatalf("rsi/rdi = %#x/%#x", e.ctx.Regs[uops.RegR9], e.ctx.Regs[uops.RegR10])
	}
	if e.ctx.Regs[uops.RegR11] != 0 {
		t.Fatal("rep with rcx=0 wrote memory")
	}
	// byte 77 = pattern[77%8] = 0x06.
	if e.ctx.Regs[uops.RegR12] != 0x06 {
		t.Fatalf("copied byte = %#x, want 0x06", e.ctx.Regs[uops.RegR12])
	}
}

func TestAtomicOps(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.Mov(x86.M(x86.RDI, 0), x86.I(10))
		a.Mov(x86.R(x86.RBX), x86.I(5))
		a.LockXadd(x86.M(x86.RDI, 0), x86.R(x86.RBX)) // mem=15, rbx=10
		// cmpxchg success: rax==mem.
		a.Mov(x86.R(x86.RAX), x86.I(15))
		a.Mov(x86.R(x86.RCX), x86.I(99))
		a.LockCmpxchg(x86.M(x86.RDI, 0), x86.R(x86.RCX)) // mem=99, ZF=1
		a.Setcc(x86.CondE, x86.R(x86.R8))
		// cmpxchg failure: rax(15) != mem(99) -> rax=99.
		a.Mov(x86.R(x86.RDX), x86.I(111))
		a.LockCmpxchg(x86.M(x86.RDI, 0), x86.R(x86.RDX))
		a.Setcc(x86.CondE, x86.R(x86.R9))
		a.Mov(x86.R(x86.R10), x86.R(x86.RAX)) // should be 99
		// lock inc/dec/add.
		a.LockInc(x86.M(x86.RDI, 0))  // 100
		a.LockAdd(x86.M(x86.RDI, 0), x86.I(10)) // 110
		a.LockDec(x86.M(x86.RDI, 0))  // 109
		a.Mov(x86.R(x86.R11), x86.M(x86.RDI, 0))
		// xchg.
		a.Mov(x86.R(x86.R12), x86.I(0xAA))
		a.Xchg(x86.M(x86.RDI, 0), x86.R(x86.R12)) // mem=0xAA, r12=109
		a.Mov(x86.R(x86.R13), x86.R(x86.RBX))
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 200)
	r := func(reg uops.ArchReg) uint64 { return e.ctx.Regs[reg] }
	if r(uops.RegR13) != 10 {
		t.Fatalf("xadd old value = %d", r(uops.RegR13))
	}
	if r(uops.RegR8)&1 != 1 {
		t.Fatal("cmpxchg success should set ZF")
	}
	if r(uops.RegR9)&1 != 0 {
		t.Fatal("cmpxchg failure should clear ZF")
	}
	if r(uops.RegR10) != 99 {
		t.Fatalf("cmpxchg failure rax = %d, want 99", r(uops.RegR10))
	}
	if r(uops.RegR11) != 109 {
		t.Fatalf("lock inc/add/dec result = %d", r(uops.RegR11))
	}
	if r(uops.RegR12) != 109 {
		t.Fatalf("xchg old = %d", r(uops.RegR12))
	}
}

func TestFlagsAndCmov(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(5))
		a.Mov(x86.R(x86.RBX), x86.I(9))
		a.Cmp(x86.R(x86.RAX), x86.R(x86.RBX))
		a.Cmovcc(x86.CondL, x86.RCX, x86.R(x86.RBX)) // rcx = 9
		a.Setcc(x86.CondGE, x86.R(x86.RDX))          // 0
		a.Setcc(x86.CondL, x86.R(x86.RSI))           // 1
		// adc chain: 0xFFFFFFFFFFFFFFFF + 1 with carry propagation.
		a.Mov(x86.R(x86.R8), x86.I(-1))
		a.Mov(x86.R(x86.R9), x86.I(0))
		a.Add(x86.R(x86.R8), x86.I(1)) // CF=1
		a.Adc(x86.R(x86.R9), x86.I(0)) // R9 = 1
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	if e.ctx.Regs[uops.RegRCX] != 9 {
		t.Fatalf("cmovl = %d", e.ctx.Regs[uops.RegRCX])
	}
	if e.ctx.Regs[uops.RegRDX]&1 != 0 || e.ctx.Regs[uops.RegRSI]&1 != 1 {
		t.Fatalf("setcc: %d %d", e.ctx.Regs[uops.RegRDX], e.ctx.Regs[uops.RegRSI])
	}
	if e.ctx.Regs[uops.RegR8] != 0 || e.ctx.Regs[uops.RegR9] != 1 {
		t.Fatalf("adc chain: %#x %#x", e.ctx.Regs[uops.RegR8], e.ctx.Regs[uops.RegR9])
	}
}

func TestFPOps(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(7))
		a.Cvtsi2sd(x86.XMM0, x86.R(x86.RAX))
		a.Mov(x86.R(x86.RBX), x86.I(2))
		a.Cvtsi2sd(x86.XMM1, x86.R(x86.RBX))
		a.Divsd(x86.XMM0, x86.R(x86.XMM1)) // 3.5
		a.Mulsd(x86.XMM0, x86.R(x86.XMM1)) // 7.0
		a.Addsd(x86.XMM0, x86.R(x86.XMM1)) // 9.0
		a.Subsd(x86.XMM0, x86.R(x86.XMM1)) // 7.0
		a.Cvttsd2si(x86.RCX, x86.R(x86.XMM0))
		// Comparison.
		a.Ucomisd(x86.XMM0, x86.R(x86.XMM1))
		a.Setcc(x86.CondA, x86.R(x86.RDX)) // 7 > 2 -> 1
		// Memory round trip.
		a.Mov(x86.R(x86.RDI), x86.I(dataVA))
		a.MovsdStore(x86.M(x86.RDI, 0), x86.XMM0)
		a.Movsd(x86.XMM2, x86.M(x86.RDI, 0))
		a.Cvttsd2si(x86.RSI, x86.R(x86.XMM2))
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	if e.ctx.Regs[uops.RegRCX] != 7 || e.ctx.Regs[uops.RegRSI] != 7 {
		t.Fatalf("fp results: %d %d", e.ctx.Regs[uops.RegRCX], e.ctx.Regs[uops.RegRSI])
	}
	if e.ctx.Regs[uops.RegRDX]&1 != 1 {
		t.Fatal("ucomisd 7 > 2 should set A")
	}
}

func TestHypercallFromKernel(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(1))
		a.Hypercall()
		a.Ptlcall()
	})
	e := newEnv(t, code, true)
	e.run(t, 10)
	if e.sys.hypercalls != 1 || e.ctx.Regs[uops.RegRAX] != 0x1234 {
		t.Fatalf("hypercall: count=%d rax=%#x", e.sys.hypercalls, e.ctx.Regs[uops.RegRAX])
	}
}

func TestRdtscAndCpuid(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Rdtsc()
		a.Mov(x86.R(x86.R8), x86.R(x86.RAX))
		a.Cpuid()
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 10)
	if e.ctx.Regs[uops.RegR8] != 100 {
		t.Fatalf("rdtsc = %d", e.ctx.Regs[uops.RegR8])
	}
	if e.ctx.Regs[uops.RegRAX] != 0xC0DE {
		t.Fatalf("cpuid = %#x", e.ctx.Regs[uops.RegRAX])
	}
}

// Exceptions: a user-mode page fault enters the kernel trap entry with
// the right frame, and iretq resumes.
func TestPageFaultDelivery(t *testing.T) {
	const handlerVA = codeVA + 0x800
	code := asm(t, func(a *x86.Assembler) {
		// User program: read unmapped memory, then after the handler
		// fixes RIP... handler will skip the instruction by adjusting
		// saved RIP. Finally ptlcall.
		a.Mov(x86.R(x86.RBX), x86.I(0xDEAD0000))
		faulting := a.Mark()
		_ = faulting
		a.Mov(x86.R(x86.RCX), x86.M(x86.RBX, 0)) // 4-byte modrm+disp... length computed below
		a.Mov(x86.R(x86.R9), x86.I(0x5E7))
		a.Ptlcall()
	})
	// Kernel trap handler at handlerVA: record vector and error, skip
	// the faulting instruction (it is 3 bytes: 48 8B 0B), iretq.
	h := x86.NewAssembler(handlerVA)
	h.Pop(x86.R(x86.R10))               // vector
	h.Pop(x86.R(x86.R11))               // error info (faulting VA)
	h.Add(x86.M(x86.RSP, 0), x86.I(3))  // saved RIP += 3
	h.Iretq()
	handler, err := h.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, code, false)
	if f := e.ctx.WriteVirtBytes(handlerVA, handler); f != uops.FaultNone {
		t.Fatal(f)
	}
	e.ctx.TrapEntry = handlerVA
	e.ctx.KernelRSP = stackTop - 256 // separate kernel stack area
	e.run(t, 100)
	if e.ctx.Regs[uops.RegR10] != vm.VecPF {
		t.Fatalf("vector = %d, want #PF", e.ctx.Regs[uops.RegR10])
	}
	if e.ctx.Regs[uops.RegR11] != 0xDEAD0000 {
		t.Fatalf("fault address = %#x", e.ctx.Regs[uops.RegR11])
	}
	if e.ctx.Regs[uops.RegR9] != 0x5E7 {
		t.Fatal("execution did not resume after iretq")
	}
	if e.ctx.Kernel {
		t.Fatal("should be back in user mode")
	}
}

func TestSyscallSysret(t *testing.T) {
	const kernelVA = codeVA + 0x800
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RDI), x86.I(41))
		a.Syscall()
		a.Mov(x86.R(x86.R9), x86.R(x86.RAX)) // syscall result
		a.Ptlcall()
	})
	k := x86.NewAssembler(kernelVA)
	// Kernel syscall entry: result = rdi+1, return via popping the
	// bounce frame: restore user RSP from frame, then sysret.
	k.Mov(x86.R(x86.RAX), x86.R(x86.RDI))
	k.Add(x86.R(x86.RAX), x86.I(1))
	k.Mov(x86.R(x86.RSP), x86.M(x86.RSP, 24)) // frame: RIP,mode,flags,RSP
	k.Sysret()
	kcode, err := k.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, code, false)
	if f := e.ctx.WriteVirtBytes(kernelVA, kcode); f != uops.FaultNone {
		t.Fatal(f)
	}
	e.ctx.SyscallEntry = kernelVA
	e.ctx.KernelRSP = stackTop - 512
	e.run(t, 100)
	if e.ctx.Regs[uops.RegR9] != 42 {
		t.Fatalf("syscall result = %d, want 42", e.ctx.Regs[uops.RegR9])
	}
	if e.ctx.Kernel {
		t.Fatal("sysret should return to user mode")
	}
}

func TestSelfModifyingCode(t *testing.T) {
	// The program overwrites an instruction ahead of it (mov rbx, 1
	// becomes mov rbx, 2 by patching the immediate) and executes it;
	// the basic block cache must be invalidated.
	code := asm(t, func(a *x86.Assembler) {
		patch := a.NewLabel()
		target := a.NewLabel()
		// Run the target once so it is cached.
		a.Call(target)
		// Patch the immediate byte (offset: movabs is 10 bytes: 48 BB imm64).
		a.LeaLabel(x86.RDI, target)
		a.Movb(x86.M(x86.RDI, 2), x86.I(2))
		a.Call(target)
		a.Ptlcall()
		a.Bind(patch)
		a.Bind(target)
		a.Emit(x86.Inst{Op: x86.OpMov, OpSize: 8, Dst: x86.R(x86.RBX), Src: x86.I(0x100000001)}) // forces movabs
		a.Ret()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	// After patching byte 2 (imm LSB) from 1 to 2: value 0x100000002.
	if e.ctx.Regs[uops.RegRBX] != 0x100000002 {
		t.Fatalf("rbx = %#x; SMC not honored", e.ctx.Regs[uops.RegRBX])
	}
	if e.tree.Lookup("seq.smc_flushes").Value() == 0 {
		t.Fatal("SMC flush not counted")
	}
}

func TestDivideFaultDelivery(t *testing.T) {
	const handlerVA = codeVA + 0x800
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(1))
		a.Cqo()
		a.Mov(x86.R(x86.RCX), x86.I(0))
		a.Idiv(x86.R(x86.RCX)) // #DE
		a.Ptlcall()
	})
	h := x86.NewAssembler(handlerVA)
	h.Pop(x86.R(x86.R10)) // vector
	h.Pop(x86.R(x86.R11))
	// Terminate via ptlcall from kernel.
	h.Ptlcall()
	handler, err := h.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, code, false)
	if f := e.ctx.WriteVirtBytes(handlerVA, handler); f != uops.FaultNone {
		t.Fatal(f)
	}
	e.ctx.TrapEntry = handlerVA
	e.ctx.KernelRSP = stackTop - 256
	e.run(t, 100)
	if e.ctx.Regs[uops.RegR10] != vm.VecDivide {
		t.Fatalf("vector = %d, want #DE", e.ctx.Regs[uops.RegR10])
	}
	if !e.ctx.Kernel {
		t.Fatal("handler should run in kernel mode")
	}
}

func TestUndefinedOpcodeDelivery(t *testing.T) {
	const handlerVA = codeVA + 0x800
	// 0F 0B (UD2, not implemented) then ptlcall (never reached).
	code := []byte{0x0F, 0x0B, 0x0F, 0x37}
	h := x86.NewAssembler(handlerVA)
	h.Pop(x86.R(x86.R10))
	h.Pop(x86.R(x86.R11))
	h.Ptlcall()
	handler, err := h.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, code, false)
	if f := e.ctx.WriteVirtBytes(handlerVA, handler); f != uops.FaultNone {
		t.Fatal(f)
	}
	e.ctx.TrapEntry = handlerVA
	e.ctx.KernelRSP = stackTop - 256
	e.run(t, 100)
	if e.ctx.Regs[uops.RegR10] != vm.VecUD {
		t.Fatalf("vector = %d, want #UD", e.ctx.Regs[uops.RegR10])
	}
}

func TestHltRequiresKernel(t *testing.T) {
	const handlerVA = codeVA + 0x800
	code := asm(t, func(a *x86.Assembler) {
		a.Hlt() // #GP from user mode
		a.Ptlcall()
	})
	h := x86.NewAssembler(handlerVA)
	h.Pop(x86.R(x86.R10))
	h.Ptlcall()
	handler, _ := h.Bytes()
	e := newEnv(t, code, false)
	e.ctx.WriteVirtBytes(handlerVA, handler)
	e.ctx.TrapEntry = handlerVA
	e.ctx.KernelRSP = stackTop - 256
	e.run(t, 100)
	if e.ctx.Regs[uops.RegR10] != vm.VecGP {
		t.Fatalf("vector = %d, want #GP", e.ctx.Regs[uops.RegR10])
	}
}

func TestShiftAndRotate(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RAX), x86.I(1))
		a.Shl(x86.R(x86.RAX), x86.I(12))
		a.Mov(x86.R(x86.RBX), x86.I(-8))
		a.Sar(x86.R(x86.RBX), x86.I(2)) // -2
		a.Mov(x86.R(x86.RCX), x86.I(3))
		a.Mov(x86.R(x86.RDX), x86.I(0x10))
		a.Shr(x86.R(x86.RDX), x86.R(x86.RCX)) // by CL: 2
		a.Mov(x86.R(x86.RSI), x86.I(-0x7FFFFFFFFFFFFFFF)) // 0x8000000000000001
		a.Rol(x86.R(x86.RSI), x86.I(1)) // 0x3
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	if e.ctx.Regs[uops.RegRAX] != 1<<12 {
		t.Fatalf("shl = %#x", e.ctx.Regs[uops.RegRAX])
	}
	if int64(e.ctx.Regs[uops.RegRBX]) != -2 {
		t.Fatalf("sar = %d", int64(e.ctx.Regs[uops.RegRBX]))
	}
	if e.ctx.Regs[uops.RegRDX] != 2 {
		t.Fatalf("shr cl = %d", e.ctx.Regs[uops.RegRDX])
	}
	if e.ctx.Regs[uops.RegRSI] != 3 {
		t.Fatalf("rol = %#x", e.ctx.Regs[uops.RegRSI])
	}
}

func TestPageCrossingAccess(t *testing.T) {
	code := asm(t, func(a *x86.Assembler) {
		// Write an 8-byte value straddling the dataVA/dataVA+0x1000
		// boundary (both pages mapped, physically discontiguous).
		a.Mov(x86.R(x86.RDI), x86.I(dataVA+0xFFC))
		a.Mov(x86.R(x86.RAX), x86.I(0x1122334455667788))
		a.Mov(x86.M(x86.RDI, 0), x86.R(x86.RAX))
		a.Mov(x86.R(x86.RBX), x86.M(x86.RDI, 0))
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.run(t, 100)
	if e.ctx.Regs[uops.RegRBX] != 0x1122334455667788 {
		t.Fatalf("page-crossing round trip = %#x", e.ctx.Regs[uops.RegRBX])
	}
}

func TestKernelMemoryProtection(t *testing.T) {
	// Map a kernel-only page; user access must fault.
	const handlerVA = codeVA + 0x800
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RBX), x86.I(dataVA + 0x2000))
		a.Mov(x86.R(x86.RCX), x86.M(x86.RBX, 0))
		a.Ptlcall()
	})
	h := x86.NewAssembler(handlerVA)
	h.Pop(x86.R(x86.R10))
	h.Ptlcall()
	handler, _ := h.Bytes()
	e := newEnv(t, code, false)
	if err := e.as.Map(dataVA+0x2000, e.pm.AllocPage(), mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	e.ctx.WriteVirtBytes(handlerVA, handler)
	e.ctx.TrapEntry = handlerVA
	e.ctx.KernelRSP = stackTop - 256
	e.run(t, 100)
	if e.ctx.Regs[uops.RegR10] != vm.VecPF {
		t.Fatalf("vector = %d, want #PF", e.ctx.Regs[uops.RegR10])
	}
}

// A guest that has its page tables mapped writable changes a PTE with
// an ordinary store: the very next instruction, in the same basic
// block, must go through the new mapping (and a later store through
// the old virtual address must land in the new frame), with no flush
// of any kind in between.
func TestGuestPTEStoreTakesEffectInSameBlock(t *testing.T) {
	const ptVA = 0x800000
	code := asm(t, func(a *x86.Assembler) {
		a.Mov(x86.R(x86.RSI), x86.I(dataVA))
		a.Mov(x86.R(x86.RAX), x86.M(x86.RSI, 0))
		a.Mov(x86.R(x86.RAX), x86.M(x86.RSI, 0)) // the translation is cached by now
		a.Mov(x86.M(x86.RSI, 8), x86.R(x86.RAX))
		a.Mov(x86.M(x86.RDI, 0), x86.R(x86.RBX)) // the PTE store
		a.Mov(x86.R(x86.RCX), x86.M(x86.RSI, 0))
		a.Mov(x86.M(x86.RSI, 16), x86.R(x86.RCX))
		a.Ptlcall()
	})
	e := newEnv(t, code, false)
	e.ctx.WriteVirt(dataVA, 0xAAAA, 8)
	e.ctx.WriteVirt(dataVA+0x1000, 0xBBBB, 8)
	leaf, err := e.as.LeafPTEAddr(dataVA)
	if err != nil {
		t.Fatal(err)
	}
	leaf2, _ := e.as.LeafPTEAddr(dataVA + 0x1000)
	pte2, _ := e.pm.Read(leaf2, 8)
	if err := e.as.Map(ptVA, leaf>>mem.PageShift, mem.PTEWritable|mem.PTEUser); err != nil {
		t.Fatal(err)
	}
	e.ctx.Regs[uops.RegRDI] = ptVA + leaf&mem.PageMask
	e.ctx.Regs[uops.RegRBX] = pte2
	e.run(t, 10)
	if e.core.Insns() != 8 || e.tree.Lookup("bb.misses").Value() != 1 {
		t.Fatalf("%d instructions in %d blocks, want 8 in 1", e.core.Insns(), e.tree.Lookup("bb.misses").Value())
	}
	if got := e.ctx.Regs[uops.RegRAX]; got != 0xAAAA {
		t.Fatalf("load before the PTE store = %#x", got)
	}
	if got := e.ctx.Regs[uops.RegRCX]; got != 0xBBBB {
		t.Fatalf("load after the PTE store = %#x, want the new frame's 0xBBBB", got)
	}
	// The store after the PTE store went to the new frame, which is
	// also still mapped at dataVA+0x1000; the one before it did not.
	if v, _ := e.ctx.ReadVirt(dataVA+0x1000+16, 8); v != 0xBBBB {
		t.Fatalf("store after the PTE store landed elsewhere: new frame holds %#x", v)
	}
	if v, _ := e.ctx.ReadVirt(dataVA+0x1000+8, 8); v != 0 {
		t.Fatalf("store before the PTE store reached the new frame: %#x", v)
	}
}
