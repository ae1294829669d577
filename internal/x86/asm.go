package x86

import (
	"encoding/binary"
	"fmt"
)

// Label identifies a position in the instruction stream being
// assembled. Labels may be referenced before they are bound; the
// assembler resolves all displacements when Bytes is called.
type Label int

type fixupKind uint8

const (
	fixRel32 fixupKind = iota // 4-byte displacement from end of field
	fixAbs64                  // 8-byte absolute virtual address
)

type fixup struct {
	kind  fixupKind
	off   int // offset of the displacement field in buf
	label Label
}

// Assembler builds x86-64 machine code at a fixed base virtual address.
// It is the tool used to construct guest kernels and workload binaries,
// standing in for the compiler toolchain that produced the guest images
// in the paper's experiments.
//
// Errors are sticky: emitting continues after an error but Bytes
// returns the first one, so straight-line building code stays readable.
type Assembler struct {
	base   uint64
	buf    []byte
	labels []int64 // byte offset, or -1 when unbound
	fixups []fixup
	err    error
}

// NewAssembler returns an assembler whose first byte will live at the
// given guest virtual address.
func NewAssembler(base uint64) *Assembler {
	return &Assembler{base: base}
}

// Base returns the base virtual address.
func (a *Assembler) Base() uint64 { return a.base }

// Len returns the number of bytes emitted so far.
func (a *Assembler) Len() int { return len(a.buf) }

func (a *Assembler) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// NewLabel allocates an unbound label.
func (a *Assembler) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

// Bind attaches l to the current position. A label may be bound once.
func (a *Assembler) Bind(l Label) {
	if a.labels[l] != -1 {
		a.fail(fmt.Errorf("x86: label %d bound twice", l))
		return
	}
	a.labels[l] = int64(len(a.buf))
}

// Mark returns a fresh label bound at the current position.
func (a *Assembler) Mark() Label {
	l := a.NewLabel()
	a.Bind(l)
	return l
}

// Addr returns the virtual address of a bound label. It is only valid
// after the label has been bound.
func (a *Assembler) Addr(l Label) uint64 {
	if a.labels[l] < 0 {
		a.fail(fmt.Errorf("x86: Addr of unbound label %d", l))
		return 0
	}
	return a.base + uint64(a.labels[l])
}

// Bytes resolves all fixups and returns the assembled machine code.
func (a *Assembler) Bytes() ([]byte, error) {
	if a.err != nil {
		return nil, a.err
	}
	for _, f := range a.fixups {
		target := a.labels[f.label]
		if target < 0 {
			return nil, fmt.Errorf("x86: unbound label %d", f.label)
		}
		switch f.kind {
		case fixRel32:
			disp := target - int64(f.off+4)
			if disp > 0x7FFFFFFF || disp < -0x80000000 {
				return nil, fmt.Errorf("x86: branch displacement %d out of range", disp)
			}
			binary.LittleEndian.PutUint32(a.buf[f.off:], uint32(disp))
		case fixAbs64:
			binary.LittleEndian.PutUint64(a.buf[f.off:], a.base+uint64(target))
		}
	}
	return a.buf, nil
}

// Emit encodes inst and appends it.
func (a *Assembler) Emit(inst Inst) {
	b, err := Encode(&inst)
	if err != nil {
		a.fail(err)
		return
	}
	a.buf = append(a.buf, b...)
}

// Raw appends raw bytes (data or hand-rolled encodings).
func (a *Assembler) Raw(b ...byte) { a.buf = append(a.buf, b...) }

// Quad appends a little-endian 64-bit data value.
func (a *Assembler) Quad(v uint64) {
	a.buf = binary.LittleEndian.AppendUint64(a.buf, v)
}

// QuadLabel appends a 64-bit slot holding the absolute address of l,
// resolved at Bytes time.
func (a *Assembler) QuadLabel(l Label) {
	a.fixups = append(a.fixups, fixup{kind: fixAbs64, off: len(a.buf), label: l})
	a.Quad(0)
}

// Operand construction helpers, exported for terse guest-building code.

// R wraps a register operand.
func R(r Reg) Operand { return RegOp(r) }

// I wraps an immediate operand.
func I(v int64) Operand { return ImmOp(v) }

// M forms a [base+disp] memory operand.
func M(base Reg, disp int32) Operand {
	return MemOp(MemRef{Base: base, Index: RegNone, Scale: 1, Disp: disp})
}

// MIdx forms a [base+index*scale+disp] memory operand.
func MIdx(base, index Reg, scale uint8, disp int32) Operand {
	return MemOp(MemRef{Base: base, Index: index, Scale: scale, Disp: disp})
}

// MAbs forms an absolute [disp32] memory operand.
func MAbs(addr int32) Operand {
	return MemOp(MemRef{Base: RegNone, Index: RegNone, Scale: 1, Disp: addr})
}

// op2 emits a two-operand instruction of the given size.
func (a *Assembler) op2(op Op, size uint8, dst, src Operand) {
	a.Emit(Inst{Op: op, OpSize: size, Dst: dst, Src: src})
}

// Sized two-operand emitters: no suffix = 64-bit, l = 32-bit,
// w = 16-bit, b = 8-bit, matching AT&T-style width conventions.

// Mov emits a 64-bit mov.
func (a *Assembler) Mov(d, s Operand) { a.op2(OpMov, 8, d, s) }

// Movl emits a 32-bit mov.
func (a *Assembler) Movl(d, s Operand) { a.op2(OpMov, 4, d, s) }

// Movw emits a 16-bit mov.
func (a *Assembler) Movw(d, s Operand) { a.op2(OpMov, 2, d, s) }

// Movb emits an 8-bit mov.
func (a *Assembler) Movb(d, s Operand) { a.op2(OpMov, 1, d, s) }

// Add emits a 64-bit add.
func (a *Assembler) Add(d, s Operand) { a.op2(OpAdd, 8, d, s) }

// Addl emits a 32-bit add.
func (a *Assembler) Addl(d, s Operand) { a.op2(OpAdd, 4, d, s) }

// Sub emits a 64-bit sub.
func (a *Assembler) Sub(d, s Operand) { a.op2(OpSub, 8, d, s) }

// Adc emits a 64-bit add-with-carry.
func (a *Assembler) Adc(d, s Operand) { a.op2(OpAdc, 8, d, s) }

// Sbb emits a 64-bit subtract-with-borrow.
func (a *Assembler) Sbb(d, s Operand) { a.op2(OpSbb, 8, d, s) }

// And emits a 64-bit and.
func (a *Assembler) And(d, s Operand) { a.op2(OpAnd, 8, d, s) }

// Or emits a 64-bit or.
func (a *Assembler) Or(d, s Operand) { a.op2(OpOr, 8, d, s) }

// Xor emits a 64-bit xor.
func (a *Assembler) Xor(d, s Operand) { a.op2(OpXor, 8, d, s) }

// Xorl emits a 32-bit xor.
func (a *Assembler) Xorl(d, s Operand) { a.op2(OpXor, 4, d, s) }

// Cmp emits a 64-bit compare.
func (a *Assembler) Cmp(d, s Operand) { a.op2(OpCmp, 8, d, s) }

// Test emits a 64-bit test.
func (a *Assembler) Test(d, s Operand) { a.op2(OpTest, 8, d, s) }

// Lea emits lea d, [m].
func (a *Assembler) Lea(d Reg, m Operand) { a.op2(OpLea, 8, R(d), m) }

// Movzx emits a zero-extending load/move from a srcW-byte source.
func (a *Assembler) Movzx(d Reg, s Operand, srcW int64) {
	a.Emit(Inst{Op: OpMovzx, OpSize: 8, Dst: R(d), Src: s, Src2: I(srcW)})
}

// Movsx emits a sign-extending load/move from a srcW-byte source.
func (a *Assembler) Movsx(d Reg, s Operand, srcW int64) {
	a.Emit(Inst{Op: OpMovsx, OpSize: 8, Dst: R(d), Src: s, Src2: I(srcW)})
}

// Push pushes a 64-bit register or memory operand.
func (a *Assembler) Push(o Operand) { a.Emit(Inst{Op: OpPush, OpSize: 8, Dst: o}) }

// Pop pops into a 64-bit register or memory operand.
func (a *Assembler) Pop(o Operand) { a.Emit(Inst{Op: OpPop, OpSize: 8, Dst: o}) }

// Shl emits a 64-bit left shift (count: immediate or RCX for CL).
func (a *Assembler) Shl(d, count Operand) { a.op2(OpShl, 8, d, count) }

// Shr emits a 64-bit logical right shift.
func (a *Assembler) Shr(d, count Operand) { a.op2(OpShr, 8, d, count) }

// Sar emits a 64-bit arithmetic right shift.
func (a *Assembler) Sar(d, count Operand) { a.op2(OpSar, 8, d, count) }

// Rol emits a 64-bit rotate left.
func (a *Assembler) Rol(d, count Operand) { a.op2(OpRol, 8, d, count) }

// Not emits a 64-bit bitwise not.
func (a *Assembler) Not(d Operand) { a.Emit(Inst{Op: OpNot, OpSize: 8, Dst: d}) }

// Neg emits a 64-bit negate.
func (a *Assembler) Neg(d Operand) { a.Emit(Inst{Op: OpNeg, OpSize: 8, Dst: d}) }

// Inc emits a 64-bit increment.
func (a *Assembler) Inc(d Operand) { a.Emit(Inst{Op: OpInc, OpSize: 8, Dst: d}) }

// Dec emits a 64-bit decrement.
func (a *Assembler) Dec(d Operand) { a.Emit(Inst{Op: OpDec, OpSize: 8, Dst: d}) }

// Imul emits the 2-operand signed multiply d = d * s.
func (a *Assembler) Imul(d Reg, s Operand) {
	a.Emit(Inst{Op: OpImul, OpSize: 8, Dst: R(d), Src: s})
}

// Imul3 emits the 3-operand signed multiply d = s * imm.
func (a *Assembler) Imul3(d Reg, s Operand, imm int64) {
	a.Emit(Inst{Op: OpImul, OpSize: 8, Dst: R(d), Src: s, Src2: I(imm)})
}

// Mul emits the widening unsigned multiply RDX:RAX = RAX * rm.
func (a *Assembler) Mul(rm Operand) { a.Emit(Inst{Op: OpMul, OpSize: 8, Dst: rm}) }

// Div emits the unsigned divide of RDX:RAX by rm.
func (a *Assembler) Div(rm Operand) { a.Emit(Inst{Op: OpDiv, OpSize: 8, Dst: rm}) }

// Idiv emits the signed divide of RDX:RAX by rm.
func (a *Assembler) Idiv(rm Operand) { a.Emit(Inst{Op: OpIdiv, OpSize: 8, Dst: rm}) }

// Cqo sign-extends RAX into RDX:RAX (pairs with Idiv).
func (a *Assembler) Cqo() { a.Emit(Inst{Op: OpCqo, OpSize: 8}) }

// branchRel emits a rel32 branch to label l and records a fixup.
func (a *Assembler) branchRel(inst Inst, l Label) {
	a.Emit(inst)
	// The displacement is always the final 4 bytes of the encoding.
	a.fixups = append(a.fixups, fixup{kind: fixRel32, off: len(a.buf) - 4, label: l})
}

// Jmp emits an unconditional jump to l.
func (a *Assembler) Jmp(l Label) {
	a.branchRel(Inst{Op: OpJmp, OpSize: 8, Dst: I(0)}, l)
}

// Jcc emits a conditional jump to l.
func (a *Assembler) Jcc(c Cond, l Label) {
	a.branchRel(Inst{Op: OpJcc, Cond: c, OpSize: 8, Dst: I(0)}, l)
}

// Call emits a direct call to l.
func (a *Assembler) Call(l Label) {
	a.branchRel(Inst{Op: OpCall, OpSize: 8, Dst: I(0)}, l)
}

// Ret emits a near return.
func (a *Assembler) Ret() { a.Emit(Inst{Op: OpRet, OpSize: 8}) }

// Setcc emits setCC on an 8-bit destination.
func (a *Assembler) Setcc(c Cond, d Operand) {
	a.Emit(Inst{Op: OpSetcc, Cond: c, OpSize: 1, Dst: d})
}

// Cmovcc emits a 64-bit conditional move.
func (a *Assembler) Cmovcc(c Cond, d Reg, s Operand) {
	a.Emit(Inst{Op: OpCmovcc, Cond: c, OpSize: 8, Dst: R(d), Src: s})
}

// Xchg emits an exchange (implicitly locked when d is memory).
func (a *Assembler) Xchg(d, s Operand) { a.op2(OpXchg, 8, d, s) }

// LockCmpxchg emits lock cmpxchg d, s (RAX is the implicit comparand).
func (a *Assembler) LockCmpxchg(d, s Operand) {
	a.Emit(Inst{Op: OpCmpxchg, OpSize: 8, Lock: true, Dst: d, Src: s})
}

// LockXadd emits lock xadd d, s.
func (a *Assembler) LockXadd(d, s Operand) {
	a.Emit(Inst{Op: OpXadd, OpSize: 8, Lock: true, Dst: d, Src: s})
}

// LockAdd emits lock add d, s (d must be memory).
func (a *Assembler) LockAdd(d, s Operand) {
	a.Emit(Inst{Op: OpAdd, OpSize: 8, Lock: true, Dst: d, Src: s})
}

// LockInc emits lock inc on a memory operand.
func (a *Assembler) LockInc(d Operand) {
	a.Emit(Inst{Op: OpInc, OpSize: 8, Lock: true, Dst: d})
}

// LockDec emits lock dec on a memory operand.
func (a *Assembler) LockDec(d Operand) {
	a.Emit(Inst{Op: OpDec, OpSize: 8, Lock: true, Dst: d})
}

// Pause emits the spin-loop hint.
func (a *Assembler) Pause() { a.Emit(Inst{Op: OpPause, OpSize: 8}) }

// RepMovs emits rep movs of the given element size (1 or 8).
func (a *Assembler) RepMovs(size uint8) {
	a.Emit(Inst{Op: OpMovs, OpSize: size, Rep: true})
}

// RepStos emits rep stos of the given element size.
func (a *Assembler) RepStos(size uint8) {
	a.Emit(Inst{Op: OpStos, OpSize: size, Rep: true})
}

// Nop emits a one-byte nop.
func (a *Assembler) Nop() { a.Emit(Inst{Op: OpNop, OpSize: 4}) }

// Hlt emits hlt (blocks the VCPU until an interrupt).
func (a *Assembler) Hlt() { a.Emit(Inst{Op: OpHlt, OpSize: 8}) }

// Syscall emits syscall.
func (a *Assembler) Syscall() { a.Emit(Inst{Op: OpSyscall, OpSize: 8}) }

// Sysret emits sysretq.
func (a *Assembler) Sysret() { a.Emit(Inst{Op: OpSysret, OpSize: 8}) }

// Iretq emits iretq.
func (a *Assembler) Iretq() { a.Emit(Inst{Op: OpIretq, OpSize: 8}) }

// Rdtsc emits rdtsc.
func (a *Assembler) Rdtsc() { a.Emit(Inst{Op: OpRdtsc, OpSize: 8}) }

// Cpuid emits cpuid.
func (a *Assembler) Cpuid() { a.Emit(Inst{Op: OpCpuid, OpSize: 8}) }

// Ptlcall emits the PTLsim breakout opcode 0F 37.
func (a *Assembler) Ptlcall() { a.Emit(Inst{Op: OpPtlcall, OpSize: 8}) }

// Hypercall emits the paravirt hypercall (VMCALL encoding).
func (a *Assembler) Hypercall() { a.Emit(Inst{Op: OpHypercall, OpSize: 8}) }

// LeaLabel loads the absolute address of l into d using a RIP-relative
// lea, the position-independent idiom compilers emit.
func (a *Assembler) LeaLabel(d Reg, l Label) {
	a.Emit(Inst{Op: OpLea, OpSize: 8, Dst: R(d),
		Src: MemOp(MemRef{Base: RIP, Index: RegNone, Scale: 1, Disp: 0})})
	a.fixups = append(a.fixups, fixup{kind: fixRel32, off: len(a.buf) - 4, label: l})
}

// Scalar FP helpers.

// Movsd emits movsd xmm, xmm/m64.
func (a *Assembler) Movsd(d Reg, s Operand) { a.op2(OpMovsdLoad, 8, R(d), s) }

// MovsdStore emits movsd m64/xmm, xmm.
func (a *Assembler) MovsdStore(d Operand, s Reg) { a.op2(OpMovsdStore, 8, d, R(s)) }

// Addsd emits addsd.
func (a *Assembler) Addsd(d Reg, s Operand) { a.op2(OpAddsd, 8, R(d), s) }

// Subsd emits subsd.
func (a *Assembler) Subsd(d Reg, s Operand) { a.op2(OpSubsd, 8, R(d), s) }

// Mulsd emits mulsd.
func (a *Assembler) Mulsd(d Reg, s Operand) { a.op2(OpMulsd, 8, R(d), s) }

// Divsd emits divsd.
func (a *Assembler) Divsd(d Reg, s Operand) { a.op2(OpDivsd, 8, R(d), s) }

// Cvtsi2sd emits cvtsi2sd xmm, r/m64.
func (a *Assembler) Cvtsi2sd(d Reg, s Operand) { a.op2(OpCvtsi2sd, 8, R(d), s) }

// Cvttsd2si emits cvttsd2si r64, xmm/m64.
func (a *Assembler) Cvttsd2si(d Reg, s Operand) { a.op2(OpCvttsd2si, 8, R(d), s) }

// Ucomisd emits ucomisd (sets ZF/PF/CF like hardware).
func (a *Assembler) Ucomisd(d Reg, s Operand) { a.op2(OpUcomisd, 8, R(d), s) }
