package seqcore

import (
	"fmt"
	"testing"

	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// Translations whose flag or width semantics only an executed result
// shows. Both engines share the translation, so a wrong one passes every
// comparison of one engine against the other; these check the
// architectural result itself.

// TestNegSetsCarry checks NEG's carry at every operand size: CF is set
// exactly when the source is non-zero, whatever CF was before. The
// carry is preset to the opposite of the expected result so a NEG that
// leaves CF alone fails.
func TestNegSetsCarry(t *testing.T) {
	for _, size := range []uint8{1, 2, 4, 8} {
		for _, src := range []uint64{0, 5, 1 << (8*uint(size) - 1)} {
			t.Run(fmt.Sprintf("neg%d/%#x", 8*int(size), src), func(t *testing.T) {
				wantCF := uint64(0)
				if src != 0 {
					wantCF = 1
				}
				code := asm(t, func(a *x86.Assembler) {
					a.Mov(x86.R(x86.RAX), x86.I(0))
					a.Cmp(x86.R(x86.RAX), x86.I(int64(1-wantCF))) // CF = 1 - wantCF
					a.Mov(x86.R(x86.RBX), x86.I(int64(src)))
					a.Emit(x86.Inst{Op: x86.OpNeg, OpSize: size, Dst: x86.R(x86.RBX)})
					a.Setcc(x86.CondB, x86.R(x86.RCX))
					a.Ptlcall()
				})
				e := newEnv(t, code, false)
				e.run(t, 100)
				if cf := e.ctx.Regs[uops.RegRCX] & 1; cf != wantCF {
					t.Fatalf("CF = %d after neg of %#x, want %d", cf, src, wantCF)
				}
				want := -src & uops.Mask(size)
				if size < 4 {
					want |= src &^ uops.Mask(size)
				}
				if got := e.ctx.Regs[uops.RegRBX]; got != want {
					t.Fatalf("result %#x, want %#x", got, want)
				}
			})
		}
	}
}

// TestSignExtendAccumulator checks CDQE (EAX into RAX) and CWDE (AX
// into EAX, upper half cleared by the 32-bit write) with source values
// whose sign differs between the correct source width and its half.
func TestSignExtendAccumulator(t *testing.T) {
	cases := []struct {
		name     string
		enc      []byte
		rax, out uint64
	}{
		{"cdqe", []byte{0x48, 0x98}, 0x1234_5678_8000_0001, 0xFFFF_FFFF_8000_0001},
		{"cdqe-positive", []byte{0x48, 0x98}, 0xFFFF_FFFF_7FFF_8001, 0x7FFF_8001},
		{"cwde", []byte{0x98}, 0xAAAA_BBBB_CCCC_8001, 0xFFFF_8001},
		{"cwde-positive", []byte{0x98}, 0xAAAA_BBBB_CC80_7FFF, 0x7FFF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := asm(t, func(a *x86.Assembler) {
				a.Mov(x86.R(x86.RAX), x86.I(int64(tc.rax)))
				a.Raw(tc.enc...)
				a.Ptlcall()
			})
			e := newEnv(t, code, false)
			e.run(t, 100)
			if got := e.ctx.Regs[uops.RegRAX]; got != tc.out {
				t.Fatalf("%s of %#x = %#x, want %#x", tc.name, tc.rax, got, tc.out)
			}
		})
	}
}
