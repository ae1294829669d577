// Package vm defines the per-VCPU Context structure (the center of
// PTLsim's multi-processor support, §4.4), guest virtual memory access
// through page table walks, precise exception and interrupt delivery,
// and the microcode assist routines shared by every core model
// (syscall/sysret/iretq, hypercalls, control register access). The
// paravirtual architecture follows Xen: the guest kernel runs at CPL 0
// but performs privileged MMU operations through hypercalls, and
// exceptions/events enter the kernel through registered entry points
// with a Xen-style bounce frame on the kernel stack.
package vm

import (
	"fmt"
	"strings"

	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// Exception vectors (x86 numbering).
const (
	VecDivide = 0
	VecDebug  = 1
	VecUD     = 6
	VecGP     = 13
	VecPF     = 14
	// VecEvent is the vector used for paravirtual event-channel
	// upcalls (the "Xen APIC" interrupt).
	VecEvent = 32
)

// Machine is the shared physical substrate all VCPUs of a domain see.
type Machine struct {
	PM *mem.PhysMem
}

// Context encapsulates all architectural and paravirtual state of one
// VCPU. Core models update it at commit; microcode assists and the
// hypervisor manipulate it directly.
type Context struct {
	M *Machine

	// Architectural register file at uop granularity (GPRs, XMM,
	// FLAGS, microcode temporaries, zero register).
	Regs [uops.NumArchRegs]uint64
	RIP  uint64

	// Privilege and paging state.
	Kernel bool
	CR3    uint64
	CR2    uint64 // faulting address of the last page fault

	// Paravirtual entry points and kernel stack, registered by the
	// guest kernel through hypercalls (Xen set_trap_table /
	// set_callbacks / stack_switch equivalents).
	TrapEntry    uint64 // exceptions and event upcalls
	SyscallEntry uint64
	KernelRSP    uint64

	// VCPU run state.
	ID      int
	Running bool // false while halted waiting for an event

	// TSC virtualization: guest TSC = cycle counter + TSCOffset. The
	// offset is adjusted when switching between native and simulation
	// mode so the guest never observes a discontinuity.
	TSCOffset uint64

	// TLB shootdown generation: incremented by CR3 writes and full
	// flushes; cores with TLBs compare against their local copy.
	FlushGen uint64

	// xlate is the host-side translation cache translate consults
	// (memaccess.go). NewContext allocates it; a Clone has none and
	// walks, so copies never alias or inherit it.
	xlate *xlateCache
}

// NewContext creates a VCPU context on machine m.
func NewContext(m *Machine, id int) *Context {
	return &Context{M: m, ID: id, Running: true, xlate: new(xlateCache)}
}

// Flags returns the current RFLAGS value.
func (c *Context) Flags() uint64 { return c.Regs[uops.RegFlags] }

// SetFlags stores RFLAGS.
func (c *Context) SetFlags(v uint64) { c.Regs[uops.RegFlags] = v }

// IF reports whether interrupts (event upcalls) are enabled.
func (c *Context) IF() bool { return c.Flags()&x86.FlagIF != 0 }

// GPR reads a general-purpose register.
func (c *Context) GPR(r x86.Reg) uint64 { return c.Regs[uops.GPR(r)] }

// Mode returns 0 in kernel mode and 3 in user mode (the privilege
// value saved in bounce frames).
func (c *Context) Mode() uint64 {
	if c.Kernel {
		return 0
	}
	return 3
}

// String summarizes the context for traces.
func (c *Context) String() string {
	return fmt.Sprintf("vcpu%d rip=%#x kernel=%v rax=%#x rsp=%#x",
		c.ID, c.RIP, c.Kernel, c.Regs[uops.RegRAX], c.Regs[uops.RegRSP])
}

// Clone returns a deep copy of the architectural state (used by
// checkpointing and co-simulation comparison).
func (c *Context) Clone() *Context {
	cp := *c
	cp.xlate = nil
	return &cp
}

// ArchEqual compares the architecturally visible state of two contexts
// (registers below the temporaries, RIP, privilege, CR3), ignoring
// microcode temporaries. Used by the co-simulation divergence search.
func ArchEqual(a, b *Context) bool {
	if a.RIP != b.RIP || a.Kernel != b.Kernel || a.CR3 != b.CR3 {
		return false
	}
	for r := uops.ArchReg(0); r < uops.RegT0; r++ {
		if r == uops.RegFlags {
			if a.Regs[r]&x86.FlagsMask != b.Regs[r]&x86.FlagsMask {
				return false
			}
			continue
		}
		if a.Regs[r] != b.Regs[r] {
			return false
		}
	}
	return true
}

// DiffArch reports every architectural difference between two
// contexts, for divergence diagnostics. The flag register is always
// rendered with its arithmetic bits decoded, so flag-only bugs (a
// wrong CF out of a shifted-by-zero, a stale ZF) are directly
// triageable from the diag string alone.
func DiffArch(a, b *Context) string {
	var diffs []string
	if a.RIP != b.RIP {
		diffs = append(diffs, fmt.Sprintf("rip: %#x vs %#x", a.RIP, b.RIP))
	}
	if a.Kernel != b.Kernel {
		diffs = append(diffs, fmt.Sprintf("mode: kernel=%v vs %v", a.Kernel, b.Kernel))
	}
	if a.CR3 != b.CR3 {
		diffs = append(diffs, fmt.Sprintf("cr3: %#x vs %#x", a.CR3, b.CR3))
	}
	for r := uops.ArchReg(0); r < uops.RegT0; r++ {
		av, bv := a.Regs[r], b.Regs[r]
		if r == uops.RegFlags {
			av &= x86.FlagsMask
			bv &= x86.FlagsMask
			if av != bv {
				diffs = append(diffs, fmt.Sprintf("flags: %#x [%s] vs %#x [%s]",
					av, FlagNames(av), bv, FlagNames(bv)))
			}
			continue
		}
		if av != bv {
			diffs = append(diffs, fmt.Sprintf("%s: %#x vs %#x", r, av, bv))
		}
	}
	return strings.Join(diffs, "; ")
}

// FlagNames decodes the arithmetic flag bits of an RFLAGS value into
// their x86 mnemonics (e.g. "CF|ZF"), "-" when none are set.
func FlagNames(v uint64) string {
	bits := []struct {
		bit  uint64
		name string
	}{
		{x86.FlagCF, "CF"}, {x86.FlagPF, "PF"}, {x86.FlagAF, "AF"},
		{x86.FlagZF, "ZF"}, {x86.FlagSF, "SF"}, {x86.FlagOF, "OF"},
	}
	var names []string
	for _, f := range bits {
		if v&f.bit != 0 {
			names = append(names, f.name)
		}
	}
	if len(names) == 0 {
		return "-"
	}
	return strings.Join(names, "|")
}

// DumpArch renders the architecturally visible register file of c
// (registers below the microcode temporaries, plus RIP/mode/CR3), one
// line per register, for divergence reports.
func (c *Context) DumpArch() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  rip=%#x kernel=%v cr3=%#x\n", c.RIP, c.Kernel, c.CR3)
	for r := uops.ArchReg(0); r < uops.RegT0; r++ {
		if r == uops.RegFlags {
			fmt.Fprintf(&b, "  %-8s %#018x [%s]\n", r.String(), c.Regs[r], FlagNames(c.Regs[r]))
			continue
		}
		fmt.Fprintf(&b, "  %-8s %#018x\n", r.String(), c.Regs[r])
	}
	return b.String()
}
