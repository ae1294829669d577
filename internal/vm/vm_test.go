package vm

import (
	"testing"

	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

type nullSys struct{ tsc uint64 }

func (s *nullSys) Hypercall(c *Context) uops.Fault { c.Regs[uops.RegRAX] = 7; return uops.FaultNone }
func (s *nullSys) Ptlcall(c *Context)              {}
func (s *nullSys) ReadTSC(c *Context) uint64       { return s.tsc }
func (s *nullSys) Cpuid(c *Context)                {}
func (s *nullSys) EventPending(c *Context) bool    { return false }

// env maps a user page at 0x1000 and a kernel-only stack page below
// 0x3000.
func env(t *testing.T) *Context {
	t.Helper()
	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	if err := as.Map(0x1000, pm.AllocPage(), mem.PTEWritable|mem.PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(0x2000, pm.AllocPage(), mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	c := NewContext(&Machine{PM: pm}, 0)
	c.CR3 = as.CR3()
	c.TrapEntry = 0x111000
	c.SyscallEntry = 0x222000
	c.KernelRSP = 0x3000
	return c
}

func syscallUop() *uops.Uop {
	return &uops.Uop{Op: uops.OpAssist, Assist: uops.AssistSyscall, RIP: 0x1040, X86Len: 2}
}

func TestSyscallEntrySemantics(t *testing.T) {
	c := env(t)
	c.Kernel = false
	c.RIP = 0x1040
	c.Regs[uops.RegRSP] = 0x1800
	c.SetFlags(x86.FlagIF | x86.FlagZF)
	if f := ExecAssist(c, syscallUop(), &nullSys{}, NopCoreHooks{}); f != uops.FaultNone {
		t.Fatal(f)
	}
	if !c.Kernel || c.RIP != 0x222000 {
		t.Fatalf("entry state: kernel=%v rip=%#x", c.Kernel, c.RIP)
	}
	if c.IF() {
		t.Fatal("events must be masked on entry")
	}
	// x86 syscall register effects.
	if c.Regs[uops.RegRCX] != 0x1042 || c.Regs[uops.RegR11]&x86.FlagZF == 0 {
		t.Fatalf("rcx=%#x r11=%#x", c.Regs[uops.RegRCX], c.Regs[uops.RegR11])
	}
	// Frame on the kernel stack: [RIP][mode][RFLAGS][RSP].
	sp := c.Regs[uops.RegRSP]
	if sp != 0x3000-32 {
		t.Fatalf("sp=%#x", sp)
	}
	rip, _ := c.ReadVirt(sp, 8)
	mode, _ := c.ReadVirt(sp+8, 8)
	rsp, _ := c.ReadVirt(sp+24, 8)
	if rip != 0x1042 || mode != 3 || rsp != 0x1800 {
		t.Fatalf("frame: rip=%#x mode=%d rsp=%#x", rip, mode, rsp)
	}
}

func TestIretqRoundTrip(t *testing.T) {
	c := env(t)
	c.Kernel = false
	c.RIP = 0x1040
	c.Regs[uops.RegRSP] = 0x1800
	c.SetFlags(x86.FlagIF | x86.FlagCF)
	if f := ExecAssist(c, syscallUop(), &nullSys{}, NopCoreHooks{}); f != uops.FaultNone {
		t.Fatal(f)
	}
	// iretq pops the frame the syscall pushed.
	iret := &uops.Uop{Op: uops.OpAssist, Assist: uops.AssistIretq, RIP: 0x222010, X86Len: 2}
	if f := ExecAssist(c, iret, &nullSys{}, NopCoreHooks{}); f != uops.FaultNone {
		t.Fatal(f)
	}
	if c.Kernel || c.RIP != 0x1042 || c.Regs[uops.RegRSP] != 0x1800 {
		t.Fatalf("return state: kernel=%v rip=%#x rsp=%#x", c.Kernel, c.RIP, c.Regs[uops.RegRSP])
	}
	if !c.IF() || c.Flags()&x86.FlagCF == 0 {
		t.Fatalf("flags not restored: %#x", c.Flags())
	}
}

func TestPrivilegeChecks(t *testing.T) {
	c := env(t)
	c.Kernel = false
	for _, id := range []uops.AssistID{uops.AssistHypercall, uops.AssistHlt,
		uops.AssistIretq, uops.AssistSysret, uops.AssistMovToCR, uops.AssistInvlpg} {
		u := &uops.Uop{Op: uops.OpAssist, Assist: id, RIP: 0x1000, X86Len: 3}
		if f := ExecAssist(c, u, &nullSys{}, NopCoreHooks{}); f != uops.FaultGP {
			t.Fatalf("assist %d from user mode: %v, want #GP", id, f)
		}
	}
	// Kernel-mode syscall is also rejected (hypercall is separate).
	c.Kernel = true
	if f := ExecAssist(c, syscallUop(), &nullSys{}, NopCoreHooks{}); f != uops.FaultGP {
		t.Fatal("kernel syscall should #GP")
	}
}

func TestDeliverExceptionFrame(t *testing.T) {
	c := env(t)
	c.Kernel = false
	c.RIP = 0x1040
	c.Regs[uops.RegRSP] = 0x1800
	c.SetFlags(x86.FlagIF)
	if err := c.DeliverException(VecPF, 0xDEAD, 0x1040); err != nil {
		t.Fatal(err)
	}
	if !c.Kernel || c.RIP != c.TrapEntry || c.IF() {
		t.Fatalf("entry: kernel=%v rip=%#x if=%v", c.Kernel, c.RIP, c.IF())
	}
	sp := c.Regs[uops.RegRSP]
	vec, _ := c.ReadVirt(sp, 8)
	errv, _ := c.ReadVirt(sp+8, 8)
	rip, _ := c.ReadVirt(sp+16, 8)
	if vec != VecPF || errv != 0xDEAD || rip != 0x1040 {
		t.Fatalf("frame: vec=%d err=%#x rip=%#x", vec, errv, rip)
	}
}

func TestDeliverWithoutTrapEntryFails(t *testing.T) {
	c := env(t)
	c.TrapEntry = 0
	if err := c.DeliverException(VecUD, 0, 0x1000); err == nil {
		t.Fatal("delivery with no trap entry must error")
	}
}

func TestRdtscSplitsEdxEax(t *testing.T) {
	c := env(t)
	sys := &nullSys{tsc: 0x1122334455667788}
	u := &uops.Uop{Op: uops.OpAssist, Assist: uops.AssistRdtsc, RIP: 0x1000, X86Len: 2}
	if f := ExecAssist(c, u, sys, NopCoreHooks{}); f != uops.FaultNone {
		t.Fatal(f)
	}
	if c.Regs[uops.RegRAX] != 0x55667788 || c.Regs[uops.RegRDX] != 0x11223344 {
		t.Fatalf("rdtsc: eax=%#x edx=%#x", c.Regs[uops.RegRAX], c.Regs[uops.RegRDX])
	}
}

func TestCRAccess(t *testing.T) {
	c := env(t)
	c.Kernel = true
	oldCR3 := c.CR3
	gen := c.FlushGen
	c.Regs[uops.RegRBX] = oldCR3 // same root, different path
	mov := &uops.Uop{Op: uops.OpAssist, Assist: uops.AssistMovToCR,
		Ra: uops.RegRBX, Imm: 3, RIP: 0x2000, X86Len: 3}
	if f := ExecAssist(c, mov, &nullSys{}, NopCoreHooks{}); f != uops.FaultNone {
		t.Fatal(f)
	}
	if c.FlushGen == gen {
		t.Fatal("CR3 write must bump the shootdown generation")
	}
	c.CR2 = 0x4242
	rd := &uops.Uop{Op: uops.OpAssist, Assist: uops.AssistMovFromCR,
		Rd: uops.RegRCX, Imm: 2, RIP: 0x2003, X86Len: 3}
	if f := ExecAssist(c, rd, &nullSys{}, NopCoreHooks{}); f != uops.FaultNone {
		t.Fatal(f)
	}
	if c.Regs[uops.RegRCX] != 0x4242 {
		t.Fatal("mov from cr2 wrong")
	}
	// Unsupported CR number is #GP.
	bad := &uops.Uop{Op: uops.OpAssist, Assist: uops.AssistMovToCR,
		Ra: uops.RegRBX, Imm: 4, RIP: 0x2006, X86Len: 3}
	if f := ExecAssist(c, bad, &nullSys{}, NopCoreHooks{}); f != uops.FaultGP {
		t.Fatal("cr4 write should #GP")
	}
}

func TestArchEqualIgnoresTemporaries(t *testing.T) {
	a, b := env(t), env(t)
	a.RIP, b.RIP = 5, 5
	a.Regs[uops.RegT0] = 99 // microcode temp: not architectural
	if !ArchEqual(a, b) {
		t.Fatal("temporaries must not affect equality")
	}
	b.Regs[uops.RegRAX] = 1
	if ArchEqual(a, b) {
		t.Fatal("GPR difference missed")
	}
	if DiffArch(a, b) == "" {
		t.Fatal("DiffArch should describe the difference")
	}
}

func TestPageCrossingVirtAccess(t *testing.T) {
	c := env(t)
	c.Kernel = true
	// 0x1000..0x2000 user page, 0x2000..0x3000 kernel page: both
	// mapped, physically discontiguous.
	if f := c.WriteVirt(0x1FFC, 0xAABBCCDDEEFF0011, 8); f != uops.FaultNone {
		t.Fatal(f)
	}
	v, f := c.ReadVirt(0x1FFC, 8)
	if f != uops.FaultNone || v != 0xAABBCCDDEEFF0011 {
		t.Fatalf("cross-page: %#x %v", v, f)
	}
	// User access to the second (kernel) page faults.
	c.Kernel = false
	if f := c.WriteVirt(0x1FFC, 1, 8); f == uops.FaultNone {
		t.Fatal("user write crossing into kernel page must fault")
	}
	// ... before it writes a byte of the first page.
	c.Kernel = true
	if v, _ := c.ReadVirt(0x1FFC, 8); v != 0xAABBCCDDEEFF0011 {
		t.Fatalf("a faulting page-crossing write changed memory: %#x", v)
	}
}
