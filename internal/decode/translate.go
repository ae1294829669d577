// Package decode translates decoded x86-64 instructions into PTLsim's
// internal uop sequences, including the microcode expansions for
// complex instructions (REP string ops, CMPXCHG, wide multiply/divide,
// pushes/pops, interlocked read-modify-writes), and builds basic blocks
// for the basic block cache.
package decode

import (
	"fmt"

	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// tx is the translation context for one x86 instruction.
type tx struct {
	out  []uops.Uop
	inst *x86.Inst
	rip  uint64 // address of this instruction
	next uint64 // address of the following instruction
	size uint8
}

func (t *tx) emit(u uops.Uop) {
	u.RIP = t.rip
	u.X86Len = uint8(t.next - t.rip)
	// Ops with no register destination must name RegZero explicitly
	// (the zero value of ArchReg is RAX).
	switch u.Op {
	case uops.OpNop, uops.OpFence, uops.OpBr, uops.OpBrcc, uops.OpBrInd,
		uops.OpBrZ, uops.OpBrNZ, uops.OpSt, uops.OpStRel:
		u.Rd = uops.RegZero
	case uops.OpAssist:
		if u.Assist != uops.AssistMovFromCR {
			u.Rd = uops.RegZero
		}
	}
	t.out = append(t.out, u)
}

// memParts decomposes an x86 memory operand into uop addressing fields.
func (t *tx) memParts(m x86.MemRef) (base, index uops.ArchReg, scale uint8, disp int64) {
	base, index = uops.RegZero, uops.RegZero
	disp = int64(m.Disp)
	if m.Base == x86.RIP {
		disp += int64(t.next)
	} else if m.Base != x86.RegNone {
		base = uops.GPR(m.Base)
	}
	if m.Index != x86.RegNone {
		index = uops.GPR(m.Index)
		switch m.Scale {
		case 2:
			scale = 1
		case 4:
			scale = 2
		case 8:
			scale = 3
		}
	}
	return base, index, scale, disp
}

// load emits a load of size bytes from mem into rd (zero-extended).
func (t *tx) load(mem x86.MemRef, size uint8, rd uops.ArchReg, acquire bool) {
	base, index, scale, disp := t.memParts(mem)
	op := uops.OpLd
	if acquire {
		op = uops.OpLdAcq
	}
	t.emit(uops.Uop{Op: op, Size: 8, Rd: rd, Ra: base, Rb: index,
		Scale: scale, Imm: disp, MemSize: size})
}

// store emits a store of size bytes of data to mem.
func (t *tx) store(mem x86.MemRef, size uint8, data uops.ArchReg, release bool) {
	base, index, scale, disp := t.memParts(mem)
	op := uops.OpSt
	if release {
		op = uops.OpStRel
	}
	t.emit(uops.Uop{Op: op, Size: 8, Rd: uops.RegZero, Ra: base, Rb: index,
		Rc: data, Scale: scale, Imm: disp, MemSize: size})
}

// movImm emits rd = imm.
func (t *tx) movImm(rd uops.ArchReg, imm int64) {
	t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: rd, Ra: uops.RegZero, Imm: imm})
}

// writeGPR moves a computed value (in src) into the x86 destination
// register with correct width semantics: 8 and 4 byte writes replace
// the register (32-bit writes zero the upper half), 1 and 2 byte
// writes merge into the low bits.
func (t *tx) writeGPR(dst uops.ArchReg, src uops.ArchReg, size uint8) {
	if size >= 4 {
		t.emit(uops.Uop{Op: uops.OpMov, Size: size, Rd: dst, Ra: src})
		return
	}
	t.emit(uops.Uop{Op: uops.OpIns, Size: 8, Rd: dst, Ra: dst, Rb: src, MemSize: size})
}

// srcVal materializes an operand value for reading: registers are used
// directly, memory is loaded into tmp, immediates return (RegZero,
// imm, true). Returns the register holding the value.
func (t *tx) srcVal(op x86.Operand, size uint8, tmp uops.ArchReg) (reg uops.ArchReg, imm int64, isImm bool) {
	switch op.Kind {
	case x86.KindReg:
		return uops.GPR(op.Reg), 0, false
	case x86.KindMem:
		t.load(op.Mem, size, tmp, false)
		return tmp, 0, false
	case x86.KindImm:
		return uops.RegZero, op.Imm, true
	}
	return uops.RegZero, 0, false
}

// aluOpFor maps x86 group-1 ALU operations to uops.
func aluOpFor(op x86.Op) (uops.Op, uint8) {
	switch op {
	case x86.OpAdd:
		return uops.OpAdd, uops.SetAll
	case x86.OpOr:
		return uops.OpOr, uops.SetAll
	case x86.OpAdc:
		return uops.OpAdc, uops.SetAll
	case x86.OpSbb:
		return uops.OpSbb, uops.SetAll
	case x86.OpAnd:
		return uops.OpAnd, uops.SetAll
	case x86.OpSub, x86.OpCmp:
		return uops.OpSub, uops.SetAll
	case x86.OpXor:
		return uops.OpXor, uops.SetAll
	case x86.OpTest:
		return uops.OpAnd, uops.SetAll
	}
	return uops.OpNop, 0
}

func shiftOpFor(op x86.Op) uops.Op {
	switch op {
	case x86.OpShl:
		return uops.OpShl
	case x86.OpShr:
		return uops.OpShr
	case x86.OpSar:
		return uops.OpSar
	case x86.OpRol:
		return uops.OpRol
	case x86.OpRor:
		return uops.OpRor
	}
	return uops.OpNop
}

// assist emits the single-uop microcode escape.
func (t *tx) assist(id uops.AssistID) {
	t.emit(uops.Uop{Op: uops.OpAssist, Size: 8, Assist: id})
}

// Translate converts one decoded x86 instruction located at rip into
// its uop sequence, appended to out. The first uop is marked SOM and the
// last EOM; the commit unit retires them atomically. On error out is
// returned at its original length.
func Translate(inst *x86.Inst, rip uint64, out []uops.Uop) ([]uops.Uop, error) {
	t := tx{out: out, inst: inst, rip: rip, next: rip + uint64(inst.Len), size: inst.OpSize}
	if t.size == 0 {
		t.size = 8
	}
	if err := t.translate(); err != nil {
		return out, err
	}
	us := t.out[len(out):]
	if len(us) == 0 {
		return out, fmt.Errorf("decode: empty translation for %s", inst)
	}
	us[0].SOM = true
	us[len(us)-1].EOM = true
	return t.out, nil
}

func (t *tx) translate() error {
	inst := t.inst
	size := t.size
	flagsReg := uops.RegFlags

	switch inst.Op {
	case x86.OpNop, x86.OpPause:
		t.emit(uops.Uop{Op: uops.OpNop})
		return nil

	case x86.OpMfence:
		t.emit(uops.Uop{Op: uops.OpFence})
		return nil

	case x86.OpAdd, x86.OpOr, x86.OpAdc, x86.OpSbb, x86.OpAnd,
		x86.OpSub, x86.OpXor, x86.OpCmp, x86.OpTest:
		return t.translateALU()

	case x86.OpMov:
		return t.translateMov()

	case x86.OpMovzx, x86.OpMovsx:
		srcW := uint8(inst.Src2.Imm)
		op := uops.OpZext
		if inst.Op == x86.OpMovsx {
			op = uops.OpSext
		}
		src, _, _ := t.srcVal(inst.Src, srcW, uops.RegT0)
		t.emit(uops.Uop{Op: op, Size: size, Rd: uops.GPR(inst.Dst.Reg), Ra: src, MemSize: srcW})
		return nil

	case x86.OpMovsxd:
		src, _, _ := t.srcVal(inst.Src, 4, uops.RegT0)
		t.emit(uops.Uop{Op: uops.OpSext, Size: 8, Rd: uops.GPR(inst.Dst.Reg), Ra: src, MemSize: 4})
		return nil

	case x86.OpLea:
		base, index, scale, disp := t.memParts(inst.Src.Mem)
		t.emit(uops.Uop{Op: uops.OpAdda, Size: size, Rd: uops.GPR(inst.Dst.Reg),
			Ra: base, Rb: index, Scale: scale, Imm: disp})
		return nil

	case x86.OpPush:
		data := uops.RegT0
		switch inst.Dst.Kind {
		case x86.KindReg:
			data = uops.GPR(inst.Dst.Reg)
		case x86.KindImm:
			t.movImm(uops.RegT0, inst.Dst.Imm)
		case x86.KindMem:
			t.load(inst.Dst.Mem, 8, uops.RegT0, false)
		}
		t.store(x86.MemRef{Base: x86.RSP, Index: x86.RegNone, Disp: -8}, 8, data, false)
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRSP, Ra: uops.RegRSP,
			Rb: uops.RegZero, Imm: -8})
		return nil

	case x86.OpPop:
		t.load(x86.MemRef{Base: x86.RSP, Index: x86.RegNone}, 8, uops.RegT0, false)
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRSP, Ra: uops.RegRSP,
			Rb: uops.RegZero, Imm: 8})
		if inst.Dst.Kind == x86.KindReg {
			t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: uops.GPR(inst.Dst.Reg), Ra: uops.RegT0})
		} else {
			t.store(inst.Dst.Mem, 8, uops.RegT0, false)
		}
		return nil

	case x86.OpShl, x86.OpShr, x86.OpSar, x86.OpRol, x86.OpRor:
		return t.translateShift()

	case x86.OpNot:
		return t.translateUnary(func(src, dst uops.ArchReg) {
			t.emit(uops.Uop{Op: uops.OpXor, Size: size, Rd: dst, Ra: src,
				Rb: uops.RegZero, BImm: true, Imm: -1})
		})

	case x86.OpNeg:
		return t.translateUnary(func(src, dst uops.ArchReg) {
			// 0 - src: exec's sub gives x86 NEG flags (CF = src != 0).
			t.movImm(uops.RegT3, 0)
			t.emit(uops.Uop{Op: uops.OpSub, Size: size, Rd: dst, Ra: uops.RegT3,
				Rb: src, Rc: flagsReg, SetFlags: uops.SetAll})
		})

	case x86.OpInc, x86.OpDec:
		op := uops.OpAdd
		if inst.Op == x86.OpDec {
			op = uops.OpSub
		}
		return t.translateUnary(func(src, dst uops.ArchReg) {
			t.emit(uops.Uop{Op: op, Size: size, Rd: dst, Ra: src,
				Rb: uops.RegZero, BImm: true, Imm: 1,
				Rc: flagsReg, SetFlags: uops.SetZAPS | uops.SetOF})
		})

	case x86.OpImul:
		return t.translateImul()
	case x86.OpMul:
		return t.translateMulDiv(uops.OpMulhu, uops.OpMull)
	case x86.OpDiv:
		return t.translateMulDiv(uops.OpDiv, uops.OpRem)
	case x86.OpIdiv:
		return t.translateMulDiv(uops.OpDivs, uops.OpRems)

	case x86.OpJmp:
		return t.translateJmp()
	case x86.OpJcc:
		target := t.next + uint64(inst.Dst.Imm)
		t.emit(uops.Uop{Op: uops.OpBrcc, Cond: inst.Cond, Rc: flagsReg,
			RIPTaken: target, RIPNot: t.next, Branch: uops.BranchCond})
		return nil
	case x86.OpCall:
		return t.translateCall()
	case x86.OpRet:
		t.load(x86.MemRef{Base: x86.RSP, Index: x86.RegNone}, 8, uops.RegT0, false)
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRSP, Ra: uops.RegRSP,
			Rb: uops.RegZero, Imm: 8})
		t.emit(uops.Uop{Op: uops.OpBrInd, Ra: uops.RegT0, Branch: uops.BranchRet,
			RIPNot: t.next})
		return nil

	case x86.OpSetcc:
		t.emit(uops.Uop{Op: uops.OpSetcc, Size: 1, Rd: uops.RegT4, Rc: flagsReg, Cond: inst.Cond})
		if inst.Dst.Kind == x86.KindReg {
			t.writeGPR(uops.GPR(inst.Dst.Reg), uops.RegT4, 1)
		} else {
			t.store(inst.Dst.Mem, 1, uops.RegT4, false)
		}
		return nil

	case x86.OpCmovcc:
		dst := uops.GPR(inst.Dst.Reg)
		src, _, _ := t.srcVal(inst.Src, size, uops.RegT0)
		t.emit(uops.Uop{Op: uops.OpSel, Size: size, Rd: dst, Ra: dst, Rb: src,
			Rc: flagsReg, Cond: inst.Cond})
		return nil

	case x86.OpXchg:
		return t.translateXchg()
	case x86.OpCmpxchg:
		return t.translateCmpxchg()
	case x86.OpXadd:
		return t.translateXadd()

	case x86.OpCdqe:
		srcW := size / 2
		t.emit(uops.Uop{Op: uops.OpSext, Size: size, Rd: uops.RegRAX, Ra: uops.RegRAX, MemSize: srcW})
		return nil
	case x86.OpCqo:
		t.emit(uops.Uop{Op: uops.OpSar, Size: size, Rd: uops.RegRDX, Ra: uops.RegRAX,
			Rb: uops.RegZero, BImm: true, Imm: int64(size)*8 - 1})
		return nil

	case x86.OpMovs, x86.OpStos, x86.OpLods:
		return t.translateString()

	case x86.OpHlt:
		t.assist(uops.AssistHlt)
		return nil
	case x86.OpSyscall:
		t.assist(uops.AssistSyscall)
		return nil
	case x86.OpSysret:
		t.assist(uops.AssistSysret)
		return nil
	case x86.OpIretq:
		t.assist(uops.AssistIretq)
		return nil
	case x86.OpRdtsc:
		t.assist(uops.AssistRdtsc)
		return nil
	case x86.OpCpuid:
		t.assist(uops.AssistCpuid)
		return nil
	case x86.OpPtlcall:
		t.assist(uops.AssistPtlcall)
		return nil
	case x86.OpHypercall:
		t.assist(uops.AssistHypercall)
		return nil
	case x86.OpMovToCR:
		u := uops.Uop{Op: uops.OpAssist, Size: 8, Assist: uops.AssistMovToCR,
			Ra: uops.GPR(inst.Src.Reg), Imm: inst.Dst.Imm}
		t.emit(u)
		return nil
	case x86.OpMovFromCR:
		u := uops.Uop{Op: uops.OpAssist, Size: 8, Assist: uops.AssistMovFromCR,
			Rd: uops.GPR(inst.Dst.Reg), Imm: inst.Src.Imm}
		t.emit(u)
		return nil
	case x86.OpInvlpg:
		base, index, scale, disp := t.memParts(inst.Dst.Mem)
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegT0, Ra: base, Rb: index,
			Scale: scale, Imm: disp})
		t.emit(uops.Uop{Op: uops.OpAssist, Size: 8, Assist: uops.AssistInvlpg, Ra: uops.RegT0})
		return nil

	case x86.OpMovsdLoad, x86.OpMovsdStore, x86.OpAddsd, x86.OpSubsd,
		x86.OpMulsd, x86.OpDivsd, x86.OpCvtsi2sd, x86.OpCvttsd2si,
		x86.OpUcomisd, x86.OpMovqXR, x86.OpMovqRX:
		return t.translateFP()
	}
	return fmt.Errorf("decode: no translation for %s", t.inst)
}

// xmmOrLoad returns the uop register holding an FP source operand.
func (t *tx) xmmOrLoad(op x86.Operand, tmp uops.ArchReg) uops.ArchReg {
	switch op.Kind {
	case x86.KindReg:
		if op.Reg.IsXMM() {
			return uops.XMM(op.Reg)
		}
		return uops.GPR(op.Reg)
	case x86.KindMem:
		t.load(op.Mem, 8, tmp, false)
		return tmp
	}
	return uops.RegZero
}

func (t *tx) translateFP() error {
	inst := t.inst
	switch inst.Op {
	case x86.OpMovsdLoad, x86.OpMovqXR:
		src := t.xmmOrLoad(inst.Src, uops.RegT0)
		t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: uops.XMM(inst.Dst.Reg), Ra: src})
	case x86.OpMovsdStore, x86.OpMovqRX:
		src := uops.XMM(inst.Src.Reg)
		if inst.Dst.Kind == x86.KindMem {
			t.store(inst.Dst.Mem, 8, src, false)
		} else if inst.Dst.Reg.IsXMM() {
			t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: uops.XMM(inst.Dst.Reg), Ra: src})
		} else {
			t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: uops.GPR(inst.Dst.Reg), Ra: src})
		}
	case x86.OpAddsd, x86.OpSubsd, x86.OpMulsd, x86.OpDivsd:
		var op uops.Op
		switch inst.Op {
		case x86.OpAddsd:
			op = uops.OpFAdd
		case x86.OpSubsd:
			op = uops.OpFSub
		case x86.OpMulsd:
			op = uops.OpFMul
		default:
			op = uops.OpFDiv
		}
		dst := uops.XMM(inst.Dst.Reg)
		src := t.xmmOrLoad(inst.Src, uops.RegT0)
		t.emit(uops.Uop{Op: op, Size: 8, Rd: dst, Ra: dst, Rb: src})
	case x86.OpCvtsi2sd:
		src := t.xmmOrLoad(inst.Src, uops.RegT0)
		t.emit(uops.Uop{Op: uops.OpFCvtID, Size: 8, Rd: uops.XMM(inst.Dst.Reg), Ra: src})
	case x86.OpCvttsd2si:
		src := t.xmmOrLoad(inst.Src, uops.RegT0)
		t.emit(uops.Uop{Op: uops.OpFCvtDI, Size: 8, Rd: uops.GPR(inst.Dst.Reg), Ra: src})
	case x86.OpUcomisd:
		src := t.xmmOrLoad(inst.Src, uops.RegT0)
		t.emit(uops.Uop{Op: uops.OpFCmp, Size: 8, Rd: uops.RegZero,
			Ra: uops.XMM(inst.Dst.Reg), Rb: src, Rc: uops.RegFlags, SetFlags: uops.SetAll})
	}
	return nil
}

func (t *tx) translateALU() error {
	inst := t.inst
	size := t.size
	op, setf := aluOpFor(inst.Op)
	discard := inst.Op == x86.OpCmp || inst.Op == x86.OpTest

	// Flags-consuming forms (ADC/SBB) read the flags register; every
	// flag-writing uop also carries Rc=flags so partial merges work.
	mk := func(dst, a, b uops.ArchReg, bImm bool, imm int64) uops.Uop {
		return uops.Uop{Op: op, Size: size, Rd: dst, Ra: a, Rb: b, BImm: bImm,
			Imm: imm, Rc: uops.RegFlags, SetFlags: setf}
	}

	switch {
	case inst.Dst.Kind == x86.KindReg:
		a := uops.GPR(inst.Dst.Reg)
		b, imm, isImm := t.srcVal(inst.Src, size, uops.RegT0)
		dst := a
		if discard {
			dst = uops.RegT5
		} else if size < 4 {
			dst = uops.RegT4
		}
		t.emit(mk(dst, a, b, isImm, imm))
		if !discard && size < 4 {
			t.writeGPR(a, uops.RegT4, size)
		}
	case inst.Dst.Kind == x86.KindMem:
		// Load-compute-store; interlocked when LOCK prefixed.
		t.load(inst.Dst.Mem, size, uops.RegT1, inst.Lock)
		b, imm, isImm := t.srcVal(inst.Src, size, uops.RegT0)
		dst := uops.RegT2
		if discard {
			dst = uops.RegT5
		}
		t.emit(mk(dst, uops.RegT1, b, isImm, imm))
		if !discard {
			t.store(inst.Dst.Mem, size, uops.RegT2, inst.Lock)
		}
	default:
		return fmt.Errorf("decode: bad ALU dst in %s", inst)
	}
	return nil
}

func (t *tx) translateMov() error {
	inst := t.inst
	size := t.size
	switch {
	case inst.Dst.Kind == x86.KindReg && inst.Src.Kind == x86.KindImm:
		if size >= 4 {
			t.emit(uops.Uop{Op: uops.OpMov, Size: size, Rd: uops.GPR(inst.Dst.Reg),
				Ra: uops.RegZero, Imm: inst.Src.Imm})
		} else {
			t.movImm(uops.RegT4, inst.Src.Imm)
			t.writeGPR(uops.GPR(inst.Dst.Reg), uops.RegT4, size)
		}
	case inst.Dst.Kind == x86.KindReg && inst.Src.Kind == x86.KindReg:
		if size >= 4 {
			t.emit(uops.Uop{Op: uops.OpMov, Size: size, Rd: uops.GPR(inst.Dst.Reg),
				Ra: uops.GPR(inst.Src.Reg)})
		} else {
			t.writeGPR(uops.GPR(inst.Dst.Reg), uops.GPR(inst.Src.Reg), size)
		}
	case inst.Dst.Kind == x86.KindReg && inst.Src.Kind == x86.KindMem:
		if size >= 4 {
			t.load(inst.Src.Mem, size, uops.GPR(inst.Dst.Reg), false)
		} else {
			t.load(inst.Src.Mem, size, uops.RegT4, false)
			t.writeGPR(uops.GPR(inst.Dst.Reg), uops.RegT4, size)
		}
	case inst.Dst.Kind == x86.KindMem && inst.Src.Kind == x86.KindReg:
		t.store(inst.Dst.Mem, size, uops.GPR(inst.Src.Reg), false)
	case inst.Dst.Kind == x86.KindMem && inst.Src.Kind == x86.KindImm:
		t.movImm(uops.RegT0, inst.Src.Imm)
		t.store(inst.Dst.Mem, size, uops.RegT0, false)
	default:
		return fmt.Errorf("decode: bad mov %s", inst)
	}
	return nil
}

func (t *tx) translateShift() error {
	inst := t.inst
	size := t.size
	op := shiftOpFor(inst.Op)
	var countReg uops.ArchReg
	var countImm int64
	var bImm bool
	if inst.Src.Kind == x86.KindImm {
		bImm = true
		countImm = inst.Src.Imm
		countReg = uops.RegZero
	} else {
		countReg = uops.RegRCX
	}
	mk := func(dst, a uops.ArchReg) uops.Uop {
		return uops.Uop{Op: op, Size: size, Rd: dst, Ra: a, Rb: countReg,
			BImm: bImm, Imm: countImm, Rc: uops.RegFlags, SetFlags: uops.SetAll}
	}
	if inst.Dst.Kind == x86.KindReg {
		a := uops.GPR(inst.Dst.Reg)
		if size < 4 {
			t.emit(mk(uops.RegT4, a))
			t.writeGPR(a, uops.RegT4, size)
		} else {
			t.emit(mk(a, a))
		}
		return nil
	}
	t.load(inst.Dst.Mem, size, uops.RegT1, inst.Lock)
	t.emit(mk(uops.RegT2, uops.RegT1))
	t.store(inst.Dst.Mem, size, uops.RegT2, inst.Lock)
	return nil
}

// translateUnary handles single-operand read-modify-write forms
// (NOT/NEG/INC/DEC); compute receives (src, dst) uop registers.
func (t *tx) translateUnary(compute func(src, dst uops.ArchReg)) error {
	inst := t.inst
	size := t.size
	if inst.Dst.Kind == x86.KindReg {
		r := uops.GPR(inst.Dst.Reg)
		if size < 4 {
			compute(r, uops.RegT4)
			t.writeGPR(r, uops.RegT4, size)
		} else {
			compute(r, r)
		}
		return nil
	}
	t.load(inst.Dst.Mem, size, uops.RegT1, inst.Lock)
	compute(uops.RegT1, uops.RegT2)
	t.store(inst.Dst.Mem, size, uops.RegT2, inst.Lock)
	return nil
}

func (t *tx) translateImul() error {
	inst := t.inst
	size := t.size
	switch {
	case inst.Src2.Kind == x86.KindImm: // 3-operand: dst = src * imm
		src, _, _ := t.srcVal(inst.Src, size, uops.RegT0)
		t.movImm(uops.RegT1, inst.Src2.Imm)
		t.emit(uops.Uop{Op: uops.OpMull, Size: size, Rd: uops.GPR(inst.Dst.Reg),
			Ra: src, Rb: uops.RegT1, Rc: uops.RegFlags, SetFlags: uops.SetAll})
	case inst.Src.Kind != x86.KindNone: // 2-operand: dst *= src
		src, _, _ := t.srcVal(inst.Src, size, uops.RegT0)
		dst := uops.GPR(inst.Dst.Reg)
		t.emit(uops.Uop{Op: uops.OpMull, Size: size, Rd: dst, Ra: dst, Rb: src,
			Rc: uops.RegFlags, SetFlags: uops.SetAll})
	default: // 1-operand widening: RDX:RAX = RAX * r/m
		return t.translateMulDiv(uops.OpMulh, uops.OpMull)
	}
	return nil
}

// translateMulDiv implements the widening multiply and divide idioms
// that write the RDX:RAX pair. hiOp computes the RDX result, loOp the
// RAX result.
func (t *tx) translateMulDiv(hiOp, loOp uops.Op) error {
	inst := t.inst
	size := t.size
	if size == 1 {
		// 8-bit divide/multiply uses AH, which this model does not
		// implement; no guest code generated by the toolchain uses it.
		t.assist(uops.AssistUD)
		return nil
	}
	src, _, _ := t.srcVal(inst.Dst, size, uops.RegT0)
	isDiv := hiOp == uops.OpDiv || hiOp == uops.OpDivs
	if isDiv {
		// quotient/remainder: Ra=RAX (low), Rb=divisor, Rc=RDX (high).
		t.emit(uops.Uop{Op: hiOp, Size: size, Rd: uops.RegT1, Ra: uops.RegRAX,
			Rb: src, Rc: uops.RegRDX})
		rem := uops.OpRem
		if hiOp == uops.OpDivs {
			rem = uops.OpRems
		}
		t.emit(uops.Uop{Op: rem, Size: size, Rd: uops.RegT2, Ra: uops.RegRAX,
			Rb: src, Rc: uops.RegRDX})
		t.emit(uops.Uop{Op: uops.OpMov, Size: size, Rd: uops.RegRAX, Ra: uops.RegT1})
		t.emit(uops.Uop{Op: uops.OpMov, Size: size, Rd: uops.RegRDX, Ra: uops.RegT2})
		return nil
	}
	_ = loOp
	t.emit(uops.Uop{Op: hiOp, Size: size, Rd: uops.RegT1, Ra: uops.RegRAX, Rb: src,
		Rc: uops.RegFlags, SetFlags: uops.SetAll})
	t.emit(uops.Uop{Op: uops.OpMull, Size: size, Rd: uops.RegT2, Ra: uops.RegRAX, Rb: src})
	t.emit(uops.Uop{Op: uops.OpMov, Size: size, Rd: uops.RegRDX, Ra: uops.RegT1})
	t.emit(uops.Uop{Op: uops.OpMov, Size: size, Rd: uops.RegRAX, Ra: uops.RegT2})
	return nil
}

func (t *tx) translateJmp() error {
	inst := t.inst
	switch inst.Dst.Kind {
	case x86.KindImm:
		target := t.next + uint64(inst.Dst.Imm)
		t.emit(uops.Uop{Op: uops.OpBr, RIPTaken: target, RIPNot: t.next,
			Branch: uops.BranchUncond})
	case x86.KindReg:
		t.emit(uops.Uop{Op: uops.OpBrInd, Ra: uops.GPR(inst.Dst.Reg),
			Branch: uops.BranchIndirect, RIPNot: t.next})
	case x86.KindMem:
		t.load(inst.Dst.Mem, 8, uops.RegT0, false)
		t.emit(uops.Uop{Op: uops.OpBrInd, Ra: uops.RegT0,
			Branch: uops.BranchIndirect, RIPNot: t.next})
	}
	return nil
}

func (t *tx) translateCall() error {
	inst := t.inst
	// Resolve the target before touching RSP (the target may be RSP-
	// or stack-relative).
	indirect := inst.Dst.Kind != x86.KindImm
	if inst.Dst.Kind == x86.KindReg {
		t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: uops.RegT1, Ra: uops.GPR(inst.Dst.Reg)})
	} else if inst.Dst.Kind == x86.KindMem {
		t.load(inst.Dst.Mem, 8, uops.RegT1, false)
	}
	t.movImm(uops.RegT2, int64(t.next))
	t.store(x86.MemRef{Base: x86.RSP, Index: x86.RegNone, Disp: -8}, 8, uops.RegT2, false)
	t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRSP, Ra: uops.RegRSP,
		Rb: uops.RegZero, Imm: -8})
	if indirect {
		t.emit(uops.Uop{Op: uops.OpBrInd, Ra: uops.RegT1, Branch: uops.BranchCall,
			RIPNot: t.next})
	} else {
		target := t.next + uint64(inst.Dst.Imm)
		t.emit(uops.Uop{Op: uops.OpBr, RIPTaken: target, RIPNot: t.next,
			Branch: uops.BranchCall})
	}
	return nil
}

func (t *tx) translateXchg() error {
	inst := t.inst
	size := t.size
	if inst.Dst.Kind == x86.KindMem {
		// Always interlocked on x86 when a memory operand is involved.
		src := uops.GPR(inst.Src.Reg)
		t.load(inst.Dst.Mem, size, uops.RegT0, true)
		t.store(inst.Dst.Mem, size, src, true)
		t.writeGPR(src, uops.RegT0, size)
		return nil
	}
	d, s := uops.GPR(inst.Dst.Reg), uops.GPR(inst.Src.Reg)
	t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: uops.RegT0, Ra: d})
	t.writeGPR(d, s, size)
	t.writeGPR(s, uops.RegT0, size)
	return nil
}

func (t *tx) translateCmpxchg() error {
	inst := t.inst
	size := t.size
	src := uops.GPR(inst.Src.Reg)
	old := uops.RegT0
	if inst.Dst.Kind == x86.KindMem {
		t.load(inst.Dst.Mem, size, old, inst.Lock)
	} else {
		t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: old, Ra: uops.GPR(inst.Dst.Reg)})
	}
	// Compare RAX with the old value; sets ZF on match.
	t.emit(uops.Uop{Op: uops.OpSub, Size: size, Rd: uops.RegT5, Ra: uops.RegRAX,
		Rb: old, Rc: uops.RegFlags, SetFlags: uops.SetAll})
	// New value for the destination: src when equal, old otherwise.
	t.emit(uops.Uop{Op: uops.OpSel, Size: size, Rd: uops.RegT1, Ra: old, Rb: src,
		Rc: uops.RegFlags, Cond: x86.CondE})
	if inst.Dst.Kind == x86.KindMem {
		t.store(inst.Dst.Mem, size, uops.RegT1, inst.Lock)
	} else {
		t.writeGPR(uops.GPR(inst.Dst.Reg), uops.RegT1, size)
	}
	// RAX receives the old value when the exchange failed.
	t.emit(uops.Uop{Op: uops.OpSel, Size: size, Rd: uops.RegT2, Ra: old, Rb: uops.RegRAX,
		Rc: uops.RegFlags, Cond: x86.CondE})
	t.writeGPR(uops.RegRAX, uops.RegT2, size)
	return nil
}

func (t *tx) translateXadd() error {
	inst := t.inst
	size := t.size
	src := uops.GPR(inst.Src.Reg)
	if inst.Dst.Kind == x86.KindMem {
		t.load(inst.Dst.Mem, size, uops.RegT0, inst.Lock)
		t.emit(uops.Uop{Op: uops.OpAdd, Size: size, Rd: uops.RegT1, Ra: uops.RegT0,
			Rb: src, Rc: uops.RegFlags, SetFlags: uops.SetAll})
		t.store(inst.Dst.Mem, size, uops.RegT1, inst.Lock)
		t.writeGPR(src, uops.RegT0, size)
		return nil
	}
	d := uops.GPR(inst.Dst.Reg)
	t.emit(uops.Uop{Op: uops.OpMov, Size: 8, Rd: uops.RegT0, Ra: d})
	t.emit(uops.Uop{Op: uops.OpAdd, Size: size, Rd: uops.RegT1, Ra: uops.RegT0,
		Rb: src, Rc: uops.RegFlags, SetFlags: uops.SetAll})
	t.writeGPR(d, uops.RegT1, size)
	t.writeGPR(src, uops.RegT0, size)
	return nil
}

// translateString expands MOVS/STOS/LODS with optional REP. A REP form
// becomes two pseudo-instructions at the same RIP: an entry check
// (branch to the next instruction when RCX is zero, not counted as a
// committed x86 instruction) followed by one iteration ending in a
// loop-back branch. Each committed iteration counts as one x86
// instruction; the direction flag is assumed clear (forward), the
// convention all generated guest code follows.
func (t *tx) translateString() error {
	inst := t.inst
	size := t.size
	step := int64(size)

	if inst.Rep {
		t.emit(uops.Uop{Op: uops.OpBrZ, Ra: uops.RegRCX,
			RIPTaken: t.next, RIPNot: t.rip, Branch: uops.BranchCond,
			SOM: true, EOM: true, NoCount: true})
	}

	bodyStart := len(t.out)
	switch inst.Op {
	case x86.OpMovs:
		t.emit(uops.Uop{Op: uops.OpLd, Size: 8, Rd: uops.RegT0, Ra: uops.RegRSI,
			Rb: uops.RegZero, MemSize: size})
		t.emit(uops.Uop{Op: uops.OpSt, Size: 8, Rd: uops.RegZero, Ra: uops.RegRDI,
			Rb: uops.RegZero, Rc: uops.RegT0, MemSize: size})
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRSI, Ra: uops.RegRSI,
			Rb: uops.RegZero, Imm: step})
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRDI, Ra: uops.RegRDI,
			Rb: uops.RegZero, Imm: step})
	case x86.OpStos:
		t.emit(uops.Uop{Op: uops.OpSt, Size: 8, Rd: uops.RegZero, Ra: uops.RegRDI,
			Rb: uops.RegZero, Rc: uops.RegRAX, MemSize: size})
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRDI, Ra: uops.RegRDI,
			Rb: uops.RegZero, Imm: step})
	case x86.OpLods:
		if size < 4 {
			t.emit(uops.Uop{Op: uops.OpLd, Size: 8, Rd: uops.RegT4, Ra: uops.RegRSI,
				Rb: uops.RegZero, MemSize: size})
			t.writeGPR(uops.RegRAX, uops.RegT4, size)
		} else {
			t.emit(uops.Uop{Op: uops.OpLd, Size: size, Rd: uops.RegRAX, Ra: uops.RegRSI,
				Rb: uops.RegZero, MemSize: size})
		}
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRSI, Ra: uops.RegRSI,
			Rb: uops.RegZero, Imm: step})
	}

	if inst.Rep {
		t.emit(uops.Uop{Op: uops.OpAdda, Size: 8, Rd: uops.RegRCX, Ra: uops.RegRCX,
			Rb: uops.RegZero, Imm: -1})
		t.emit(uops.Uop{Op: uops.OpBrNZ, Ra: uops.RegRCX,
			RIPTaken: t.rip, RIPNot: t.next, Branch: uops.BranchCond})
		// Mark the iteration body as its own instruction.
		t.out[bodyStart].SOM = true
		t.out[len(t.out)-1].EOM = true
	}
	return nil
}
