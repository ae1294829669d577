package vm

import (
	"fmt"

	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// Hooks is the system layer the assist microcode calls out to: the
// hypervisor substrate implements it (hypercalls, event channels,
// virtual time), and the simulator harness implements ptlcall.
type Hooks interface {
	// Hypercall services the paravirt hypercall in ctx's registers
	// (RAX = op, args in RDI/RSI/RDX); the result goes to RAX.
	Hypercall(c *Context) uops.Fault
	// Ptlcall handles the PTLsim breakout opcode (simulator control:
	// switch core models, queue command lists).
	Ptlcall(c *Context)
	// ReadTSC returns the guest-visible timestamp counter (simulated
	// cycles plus the context's virtualization offset).
	ReadTSC(c *Context) uint64
	// Cpuid fills RAX..RDX for the CPUID leaf in RAX.
	Cpuid(c *Context)
}

// CoreHooks lets assists act on the executing core's microarchitectural
// state (TLBs). The sequential core's implementations are no-ops.
type CoreHooks interface {
	FlushTLB()
	FlushTLBPage(va uint64)
}

// NopCoreHooks is a CoreHooks for cores without TLBs.
type NopCoreHooks struct{}

// FlushTLB implements CoreHooks.
func (NopCoreHooks) FlushTLB() {}

// FlushTLBPage implements CoreHooks.
func (NopCoreHooks) FlushTLBPage(uint64) {}

// Bounce frame layout (qwords relative to RSP after delivery):
//
//	+0  vector      (trap entry only)
//	+8  error info  (trap entry only; faulting VA for #PF)
//	+16 saved RIP
//	+24 saved mode (0 kernel / 3 user)
//	+32 saved RFLAGS
//	+40 saved RSP
//
// The syscall path pushes only the upper four fields. IRETQ pops the
// four-field frame at RSP, so trap handlers discard the first two
// qwords before returning.
const (
	frameSize     = 32 // RIP, mode, RFLAGS, RSP
	trapFrameSize = 48
)

// pushFrame writes the 4-field return frame at base-32..base-8 and
// returns the new stack top. The caller captures the outgoing mode,
// flags and stack pointer *before* raising the privilege level, then
// calls this with c.Kernel already true (the hardware microcode pushes
// the frame at CPL 0, so supervisor-only kernel stacks work).
func (c *Context) pushFrame(base, retRIP, mode, flags, rsp uint64) (uint64, uops.Fault) {
	sp := base - frameSize
	vals := [4]uint64{retRIP, mode, flags, rsp}
	for i, v := range vals {
		if f := c.WriteVirt(sp+uint64(i)*8, v, 8); f != uops.FaultNone {
			return 0, f
		}
	}
	return sp, uops.FaultNone
}

// enterKernel switches to kernel mode at entry with events masked.
func (c *Context) enterKernel(entry, sp uint64) {
	c.Regs[uops.RegRSP] = sp
	c.SetFlags(c.Flags() &^ x86.FlagIF)
	c.Kernel = true
	c.RIP = entry
	c.Running = true
}

// trapBase picks the stack on which to deliver a trap: the registered
// kernel stack when coming from user mode, the current stack when
// already in the kernel (nested trap).
func (c *Context) trapBase() uint64 {
	if c.Kernel {
		return c.Regs[uops.RegRSP]
	}
	return c.KernelRSP
}

// DeliverException performs the microcoded exception entry: build the
// bounce frame on the kernel stack and redirect to the registered trap
// entry. retRIP is the faulting instruction's address (exceptions
// restart the instruction). A fault during delivery is a double fault,
// which the simulator treats as fatal.
func (c *Context) DeliverException(vector, errInfo, retRIP uint64) error {
	if c.TrapEntry == 0 {
		return fmt.Errorf("vm: vcpu%d exception %d at %#x with no trap entry", c.ID, vector, retRIP)
	}
	base := c.trapBase()
	mode, flags, rsp := c.Mode(), c.Flags(), c.Regs[uops.RegRSP]
	c.Kernel = true // microcode pushes the frame at supervisor level
	sp, f := c.pushFrame(base, retRIP, mode, flags, rsp)
	if f != uops.FaultNone {
		return fmt.Errorf("vm: double fault delivering vector %d at %#x (err=%#x kernel=%v kernelRSP=%#x frame fault %v at cr2=%#x)",
			vector, retRIP, errInfo, c.Kernel, c.KernelRSP, f, c.CR2)
	}
	sp -= 16
	if f := c.WriteVirt(sp, vector, 8); f != uops.FaultNone {
		return fmt.Errorf("vm: double fault (vector push)")
	}
	if f := c.WriteVirt(sp+8, errInfo, 8); f != uops.FaultNone {
		return fmt.Errorf("vm: double fault (error push)")
	}
	c.enterKernel(c.TrapEntry, sp)
	return nil
}

// DeliverEvent injects the paravirtual event upcall (vector 32) before
// the instruction at c.RIP. The caller checks IF and pending state.
func (c *Context) DeliverEvent() error {
	return c.DeliverException(VecEvent, 0, c.RIP)
}

// FaultVector maps a uop fault to its exception vector and error info.
func FaultVector(c *Context, f uops.Fault) (vector, errInfo uint64) {
	switch f {
	case uops.FaultDivide:
		return VecDivide, 0
	case uops.FaultUD:
		return VecUD, 0
	case uops.FaultGP:
		return VecGP, 0
	case uops.FaultPageRead, uops.FaultPageWrite, uops.FaultPageExec:
		return VecPF, c.CR2
	default:
		return VecGP, 0
	}
}

// ExecAssist runs the microcode assist for u against ctx. The uop's
// RIP/X86Len locate the instruction; nextRIP is where execution
// continues if the assist completes. It returns a fault to be delivered
// (with RIP left at the faulting instruction) or FaultNone with ctx.RIP
// updated.
func ExecAssist(c *Context, u *uops.Uop, hooks System, core CoreHooks) uops.Fault {
	next := u.RIP + uint64(u.X86Len)
	switch u.Assist {
	case uops.AssistSyscall:
		if c.Kernel {
			// Kernel-mode syscall is this platform's hypercall alias;
			// keep strict and fault instead.
			return uops.FaultGP
		}
		if c.SyscallEntry == 0 {
			return uops.FaultGP
		}
		// x86 syscall semantics: RCX = return RIP, R11 = RFLAGS; the
		// Xen-style bounce frame additionally switches stacks.
		c.Regs[uops.RegRCX] = next
		c.Regs[uops.RegR11] = c.Flags()
		mode, flags, rsp := c.Mode(), c.Flags(), c.Regs[uops.RegRSP]
		c.Kernel = true
		sp, f := c.pushFrame(c.KernelRSP, next, mode, flags, rsp)
		if f != uops.FaultNone {
			c.Kernel = false // undo for precise fault semantics
			return f
		}
		c.enterKernel(c.SyscallEntry, sp)
		return uops.FaultNone

	case uops.AssistSysret:
		if !c.Kernel {
			return uops.FaultGP
		}
		// Fast return: RIP from RCX, RFLAGS from R11; the kernel has
		// already restored the user RSP.
		c.RIP = c.Regs[uops.RegRCX]
		c.SetFlags(c.Regs[uops.RegR11])
		c.Kernel = false
		return uops.FaultNone

	case uops.AssistIretq:
		if !c.Kernel {
			return uops.FaultGP
		}
		sp := c.Regs[uops.RegRSP]
		var vals [4]uint64
		for i := range vals {
			v, f := c.ReadVirt(sp+uint64(i)*8, 8)
			if f != uops.FaultNone {
				return f
			}
			vals[i] = v
		}
		c.RIP = vals[0]
		c.Kernel = vals[1] == 0
		c.SetFlags(vals[2])
		c.Regs[uops.RegRSP] = vals[3]
		return uops.FaultNone

	case uops.AssistHypercall:
		if !c.Kernel {
			return uops.FaultGP
		}
		if f := hooks.Hypercall(c); f != uops.FaultNone {
			return f
		}
		c.RIP = next
		return uops.FaultNone

	case uops.AssistPtlcall:
		hooks.Ptlcall(c)
		c.RIP = next
		return uops.FaultNone

	case uops.AssistRdtsc:
		tsc := hooks.ReadTSC(c)
		c.Regs[uops.RegRAX] = tsc & 0xFFFFFFFF
		c.Regs[uops.RegRDX] = tsc >> 32
		c.RIP = next
		return uops.FaultNone

	case uops.AssistCpuid:
		hooks.Cpuid(c)
		c.RIP = next
		return uops.FaultNone

	case uops.AssistHlt:
		if !c.Kernel {
			return uops.FaultGP
		}
		// With an event already pending, hlt completes immediately
		// (matching hardware hlt with a pending interrupt).
		if !hooks.EventPending(c) {
			c.Running = false
		}
		c.RIP = next
		return uops.FaultNone

	case uops.AssistMovToCR:
		if !c.Kernel {
			return uops.FaultGP
		}
		switch u.Imm {
		case 3:
			c.CR3 = c.Regs[u.Ra]
			c.FlushGen++
			core.FlushTLB()
		default:
			return uops.FaultGP
		}
		c.RIP = next
		return uops.FaultNone

	case uops.AssistMovFromCR:
		if !c.Kernel {
			return uops.FaultGP
		}
		switch u.Imm {
		case 2:
			c.Regs[u.Rd] = c.CR2
		case 3:
			c.Regs[u.Rd] = c.CR3
		default:
			return uops.FaultGP
		}
		c.RIP = next
		return uops.FaultNone

	case uops.AssistInvlpg:
		if !c.Kernel {
			return uops.FaultGP
		}
		core.FlushTLBPage(c.Regs[u.Ra])
		c.RIP = next
		return uops.FaultNone

	case uops.AssistUD:
		return uops.FaultUD
	}
	return uops.FaultUD
}
