package core

import (
	"testing"

	"ptlsim/internal/hv"
	"ptlsim/internal/x86"
)

// TestPageCrossingBlockHitsTheCache runs a loop whose one basic block
// straddles a page boundary on both engines: the block is decoded once
// and every later iteration hits the BB cache.
func TestPageCrossingBlockHitsTheCache(t *testing.T) {
	const iters = 200
	a := x86.NewAssembler(pairCodeVA)
	loop := a.NewLabel()
	a.Mov(x86.R(x86.RCX), x86.I(iters))
	a.Xor(x86.R(x86.RAX), x86.R(x86.RAX))
	a.Jmp(loop)
	for a.Len() < 0xFFA {
		a.Raw(0xCC)
	}
	a.Bind(loop) // add (4 bytes) ends at 0xFFE, dec rcx runs onto the next page
	a.Add(x86.R(x86.RAX), x86.I(3))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, loop)
	a.Mov(x86.R(x86.RAX), x86.I(hv.HcShutdown))
	a.Xor(x86.R(x86.RDI), x86.R(x86.RDI))
	a.Hypercall()
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr(loop)>>12 == (a.Addr(loop)+8)>>12 {
		t.Fatalf("loop at %#x does not cross a page", a.Addr(loop))
	}
	for _, mode := range []Mode{ModeNative, ModeSim} {
		m := bootBare(t, k8Machine(), code, pairCodeVA)
		m.SwitchMode(mode)
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if !m.Dom.ShutdownReq {
			t.Fatalf("mode %d: guest did not shut down", mode)
		}
		hits, misses := m.Tree.Lookup("bbcache.hits").Value(), m.Tree.Lookup("bbcache.misses").Value()
		if misses > 10 || hits < iters-1 {
			t.Errorf("mode %d: %d BB-cache misses, %d hits over %d iterations of one page-crossing block",
				mode, misses, hits, iters)
		}
	}
}
