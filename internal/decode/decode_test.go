package decode

import (
	"math/rand"
	"testing"

	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

func mustTranslate(t *testing.T, inst x86.Inst, rip uint64) []uops.Uop {
	t.Helper()
	code, err := x86.Encode(&inst)
	if err != nil {
		t.Fatalf("encode %s: %v", &inst, err)
	}
	dec, err := x86.Decode(code)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	us, err := Translate(&dec, rip, nil)
	if err != nil {
		t.Fatalf("translate %s: %v", &dec, err)
	}
	return us
}

// checkWellFormed asserts the SOM/EOM structure invariants every core
// depends on.
func checkWellFormed(t *testing.T, us []uops.Uop) {
	t.Helper()
	if len(us) == 0 {
		t.Fatal("empty uop sequence")
	}
	if !us[0].SOM {
		t.Fatal("first uop must be SOM")
	}
	if !us[len(us)-1].EOM {
		t.Fatal("last uop must be EOM")
	}
	open := false
	for i := range us {
		u := &us[i]
		if u.SOM {
			if open {
				t.Fatalf("uop %d: SOM inside open instruction", i)
			}
			open = true
		}
		if !open {
			t.Fatalf("uop %d: not inside an instruction", i)
		}
		if u.IsBranch() && !u.EOM {
			t.Fatalf("uop %d: branch not at EOM", i)
		}
		if u.EOM {
			open = false
		}
	}
	if open {
		t.Fatal("unterminated instruction")
	}
}

func TestTranslateSimpleForms(t *testing.T) {
	cases := []x86.Inst{
		{Op: x86.OpAdd, OpSize: 8, Dst: x86.R(x86.RAX), Src: x86.R(x86.RBX)},
		{Op: x86.OpAdd, OpSize: 8, Dst: x86.M(x86.RDI, 8), Src: x86.I(5)},
		{Op: x86.OpMov, OpSize: 4, Dst: x86.R(x86.RCX), Src: x86.M(x86.RSI, -4)},
		{Op: x86.OpCmp, OpSize: 8, Dst: x86.R(x86.RAX), Src: x86.I(0)},
		{Op: x86.OpPush, OpSize: 8, Dst: x86.R(x86.RBP)},
		{Op: x86.OpPop, OpSize: 8, Dst: x86.R(x86.RBP)},
		{Op: x86.OpJcc, Cond: x86.CondNE, OpSize: 8, Dst: x86.I(-20)},
		{Op: x86.OpCall, OpSize: 8, Dst: x86.I(100)},
		{Op: x86.OpRet, OpSize: 8},
		{Op: x86.OpLea, OpSize: 8, Dst: x86.R(x86.RAX), Src: x86.MIdx(x86.RBX, x86.RCX, 4, 16)},
		{Op: x86.OpXchg, OpSize: 8, Dst: x86.M(x86.RDI, 0), Src: x86.R(x86.RAX)},
		{Op: x86.OpCmpxchg, OpSize: 8, Lock: true, Dst: x86.M(x86.RDI, 0), Src: x86.R(x86.RBX)},
		{Op: x86.OpMovs, OpSize: 1, Rep: true},
		{Op: x86.OpSyscall, OpSize: 8},
		{Op: x86.OpHlt, OpSize: 8},
	}
	for _, inst := range cases {
		us := mustTranslate(t, inst, 0x1000)
		checkWellFormed(t, us)
	}
}

func TestCmpDoesNotWriteDest(t *testing.T) {
	us := mustTranslate(t, x86.Inst{Op: x86.OpCmp, OpSize: 8,
		Dst: x86.R(x86.RAX), Src: x86.R(x86.RBX)}, 0)
	for _, u := range us {
		if u.Rd == uops.RegRAX {
			t.Fatal("cmp must not write its destination register")
		}
	}
}

func TestCmpMemDoesNotStore(t *testing.T) {
	us := mustTranslate(t, x86.Inst{Op: x86.OpCmp, OpSize: 8,
		Dst: x86.M(x86.RDI, 0), Src: x86.I(3)}, 0)
	for _, u := range us {
		if u.IsStore() {
			t.Fatal("cmp with memory operand must not store")
		}
	}
}

func TestLockedRMWUsesAcqRel(t *testing.T) {
	us := mustTranslate(t, x86.Inst{Op: x86.OpAdd, OpSize: 8, Lock: true,
		Dst: x86.M(x86.RDI, 0), Src: x86.I(1)}, 0)
	var acq, rel bool
	for _, u := range us {
		if u.Op == uops.OpLdAcq {
			acq = true
		}
		if u.Op == uops.OpStRel {
			rel = true
		}
	}
	if !acq || !rel {
		t.Fatalf("locked RMW must use ld.acq/st.rel (acq=%v rel=%v)", acq, rel)
	}
	// Unlocked version must not.
	us = mustTranslate(t, x86.Inst{Op: x86.OpAdd, OpSize: 8,
		Dst: x86.M(x86.RDI, 0), Src: x86.I(1)}, 0)
	for _, u := range us {
		if u.Op == uops.OpLdAcq || u.Op == uops.OpStRel {
			t.Fatal("unlocked RMW must use plain ld/st")
		}
	}
}

func TestBranchTargets(t *testing.T) {
	rip := uint64(0x2000)
	inst := x86.Inst{Op: x86.OpJcc, Cond: x86.CondE, OpSize: 8, Dst: x86.I(0x30)}
	us := mustTranslate(t, inst, rip)
	br := us[len(us)-1]
	// Encoded length of jcc rel32 is 6 bytes.
	if br.RIPNot != rip+6 {
		t.Fatalf("fallthrough = %#x, want %#x", br.RIPNot, rip+6)
	}
	if br.RIPTaken != rip+6+0x30 {
		t.Fatalf("target = %#x", br.RIPTaken)
	}
}

func TestRepStructure(t *testing.T) {
	us := mustTranslate(t, x86.Inst{Op: x86.OpMovs, OpSize: 8, Rep: true}, 0x3000)
	checkWellFormed(t, us)
	if us[0].Op != uops.OpBrZ || !us[0].NoCount {
		t.Fatalf("first uop should be uncounted entry check, got %s", &us[0])
	}
	last := us[len(us)-1]
	if last.Op != uops.OpBrNZ || last.RIPTaken != 0x3000 {
		t.Fatalf("last uop should loop back to the instruction, got %s", &last)
	}
	// RIP-relative: check targets next instruction (movsq with rep = 3 bytes).
	if us[0].RIPTaken != 0x3003 {
		t.Fatalf("entry check target = %#x", us[0].RIPTaken)
	}
}

func TestRIPRelativeAddressing(t *testing.T) {
	inst := x86.Inst{Op: x86.OpMov, OpSize: 8, Dst: x86.R(x86.RAX),
		Src: x86.MemOp(x86.MemRef{Base: x86.RIP, Index: x86.RegNone, Scale: 1, Disp: 0x100})}
	us := mustTranslate(t, inst, 0x5000)
	ld := us[0]
	if !ld.IsLoad() {
		t.Fatal("expected load")
	}
	// Instruction is 7 bytes; address = 0x5007 + 0x100 absolute.
	if ld.Ra != uops.RegZero || ld.Imm != 0x5107 {
		t.Fatalf("rip-relative address = ra:%s imm:%#x", ld.Ra, ld.Imm)
	}
}

func TestFlagConsumersReadFlags(t *testing.T) {
	for _, inst := range []x86.Inst{
		{Op: x86.OpAdc, OpSize: 8, Dst: x86.R(x86.RAX), Src: x86.R(x86.RBX)},
		{Op: x86.OpJcc, Cond: x86.CondB, OpSize: 8, Dst: x86.I(4)},
		{Op: x86.OpCmovcc, Cond: x86.CondE, OpSize: 8, Dst: x86.R(x86.RAX), Src: x86.R(x86.RBX)},
		{Op: x86.OpSetcc, Cond: x86.CondG, OpSize: 1, Dst: x86.R(x86.RAX)},
	} {
		us := mustTranslate(t, inst, 0)
		found := false
		for _, u := range us {
			if u.Rc == uops.RegFlags {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no uop reads flags", &inst)
		}
	}
}

func TestIncPreservesCarryMask(t *testing.T) {
	us := mustTranslate(t, x86.Inst{Op: x86.OpInc, OpSize: 8, Dst: x86.R(x86.RAX)}, 0)
	for _, u := range us {
		if u.SetFlags&uops.SetCF != 0 {
			t.Fatal("inc must not write CF")
		}
	}
}

// Every decodable instruction must translate into a well-formed uop
// sequence (or a #UD assist) — the front end can never be wedged by
// bytes it decoded successfully.
func TestTranslateTotalityFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	buf := make([]byte, 18)
	translated := 0
	for i := 0; i < 30000; i++ {
		r.Read(buf)
		inst, err := x86.Decode(buf)
		if err != nil {
			continue
		}
		us, terr := Translate(&inst, 0x400000, nil)
		if terr != nil {
			// Acceptable only if it becomes a UD in BuildBB; Translate
			// itself should handle everything decodable.
			t.Fatalf("decodable %s did not translate: %v", &inst, terr)
		}
		checkWellFormed(t, us)
		translated++
	}
	if translated < 1000 {
		t.Fatalf("fuzz generated too few valid instructions: %d", translated)
	}
}

// --- basic block builder ---

// memFetcher serves code bytes from a flat map of pages.
type memFetcher map[uint64][]byte // page base -> 4096 bytes

func (m memFetcher) fetch(va uint64, buf []byte) (int, uops.Fault) {
	total := 0
	for total < len(buf) {
		page, ok := m[(va+uint64(total))&^uint64(4095)]
		if !ok {
			if total == 0 {
				return 0, uops.FaultPageExec
			}
			return total, uops.FaultNone
		}
		off := (va + uint64(total)) & 4095
		n := copy(buf[total:], page[off:])
		total += n
	}
	return total, uops.FaultNone
}

func pageWith(code []byte, base uint64) memFetcher {
	m := memFetcher{}
	for i := 0; i < len(code); i += 4096 {
		pg := make([]byte, 4096)
		copy(pg, code[i:])
		m[base+uint64(i)] = pg
	}
	return m
}

func TestBuildBBEndsAtBranch(t *testing.T) {
	a := x86.NewAssembler(0x1000)
	a.Mov(x86.R(x86.RAX), x86.I(1))
	a.Add(x86.R(x86.RAX), x86.I(2))
	l := a.NewLabel()
	a.Jmp(l)
	a.Bind(l)
	a.Nop() // should not be included
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	bb, fault := BuildBB(pageWith(code, 0x1000).fetch, 0x1000)
	if fault != uops.FaultNone {
		t.Fatal(fault)
	}
	if !bb.EndsInBranch || bb.NumX86 != 3 {
		t.Fatalf("bb: branch=%v insns=%d", bb.EndsInBranch, bb.NumX86)
	}
	checkWellFormed(t, bb.Uops)
}

func TestBuildBBCapsLength(t *testing.T) {
	a := x86.NewAssembler(0x1000)
	for i := 0; i < 100; i++ {
		a.Add(x86.R(x86.RAX), x86.I(1))
	}
	code, _ := a.Bytes()
	bb, fault := BuildBB(pageWith(code, 0x1000).fetch, 0x1000)
	if fault != uops.FaultNone {
		t.Fatal(fault)
	}
	if bb.EndsInBranch {
		t.Fatal("capped block should not claim a branch ending")
	}
	if bb.NumX86 != MaxBBX86Insns {
		t.Fatalf("insns = %d, want cap %d", bb.NumX86, MaxBBX86Insns)
	}
	// Fall-through address continues exactly after the included insns.
	if bb.FallThrough() != 0x1000+bb.X86Len {
		t.Fatal("fallthrough mismatch")
	}
}

func TestBuildBBFetchFault(t *testing.T) {
	if _, fault := BuildBB(memFetcher{}.fetch, 0x9999000); fault == uops.FaultNone {
		t.Fatal("fetch from unmapped page must fault")
	}
}

func TestBuildBBPartialPage(t *testing.T) {
	// Code runs to the end of a mapped page, next page unmapped; the
	// block must end before the instruction that crosses.
	a := x86.NewAssembler(0x1000)
	for a.Len() < 4093 {
		a.Nop()
	}
	a.Mov(x86.R(x86.RAX), x86.I(1)) // crosses into unmapped page
	code, _ := a.Bytes()
	m := memFetcher{0x1000: append(make([]byte, 0, 4096), code[:4096]...)}
	// pad to 4096
	for len(m[0x1000]) < 4096 {
		m[0x1000] = append(m[0x1000], 0)
	}
	bb, fault := BuildBB(m.fetch, 0x1000)
	if fault != uops.FaultNone {
		t.Fatal(fault)
	}
	if bb.NumX86 > MaxBBX86Insns || bb.X86Len > 4093 {
		t.Fatalf("block should stop at page edge: len=%d", bb.X86Len)
	}
}

func TestBuildBBUndefinedBecomesUD(t *testing.T) {
	code := []byte{0x90, 0x0F, 0xFF, 0x90} // nop, undefined, nop
	bb, fault := BuildBB(pageWith(code, 0x1000).fetch, 0x1000)
	if fault != uops.FaultNone {
		t.Fatal(fault)
	}
	last := bb.Uops[len(bb.Uops)-1]
	if last.Op != uops.OpAssist || last.Assist != uops.AssistUD {
		t.Fatalf("undefined opcode should end block with UD assist, got %s", &last)
	}
}
