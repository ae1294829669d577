package core

import (
	"testing"

	"ptlsim/internal/hv"
	"ptlsim/internal/selfcheck"
	"ptlsim/internal/uops"
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

// TestStoreAcrossPagesDropsEveryCodePage rewrites cached code with
// 8-byte stores that start 4 bytes before a page and patch the
// "mov eax, 1" at its start into "mov eax, 2". Both stores must drop
// every code page they touch, on both engines and under the commit
// oracle (whose shadow core commits through the phantom path):
//
//	(a) from a page with no code on it into a code page;
//	(b) from the end of a code page into another code page, both with
//	    cached blocks.
func TestStoreAcrossPagesDropsEveryCodePage(t *testing.T) {
	const (
		dataPage = pairCodeVA + 0x1000 // no code runs here
		fPage    = pairCodeVA + 0x2000 // f: mov eax, 1; ret
		gPage    = pairCodeVA + 0x3000 // g: mov eax, 1; ret
		// The store's value: int3 padding on the first page, then
		// B8 02 00 00 on the second (the mov's high immediate byte is
		// already 0).
		patch = 0x000002B8_CCCCCCCC
	)
	a := x86.NewAssembler(pairCodeVA)
	f, g := a.NewLabel(), a.NewLabel()
	a.Mov(x86.R(x86.RDX), x86.I(patch))
	a.Call(f) // caches f
	a.Mov(x86.R(x86.RSI), x86.I(fPage-4))
	a.Mov(x86.M(x86.RSI, 0), x86.R(x86.RDX)) // (a)
	a.Call(f)
	a.Mov(x86.R(x86.RBX), x86.R(x86.RAX))
	a.Call(g) // caches g, f's page holds f again
	a.Mov(x86.R(x86.RSI), x86.I(gPage-4))
	a.Mov(x86.M(x86.RSI, 0), x86.R(x86.RDX)) // (b)
	a.Call(g)
	a.Mov(x86.R(x86.R12), x86.R(x86.RAX))
	a.Mov(x86.R(x86.RAX), x86.I(hv.HcShutdown))
	a.Xor(x86.R(x86.RDI), x86.R(x86.RDI))
	a.Hypercall()
	for _, fn := range []struct {
		l  x86.Label
		va uint64
	}{{f, fPage}, {g, gPage}} {
		for uint64(a.Len()) < fn.va-pairCodeVA {
			a.Raw(0xCC)
		}
		a.Bind(fn.l)
		a.Raw(0xB8, 1, 0, 0, 0, 0xC3)
	}
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr(f) != fPage || a.Addr(g) != gPage {
		t.Fatalf("f at %#x, g at %#x", a.Addr(f), a.Addr(g))
	}
	for _, run := range []struct {
		name   string
		mode   Mode
		oracle bool
	}{{"native", ModeNative, false}, {"sim", ModeSim, false}, {"sim+oracle", ModeSim, true}} {
		t.Run(run.name, func(t *testing.T) {
			cfg := k8Machine()
			cfg.SelfCheck = selfcheck.Config{Oracle: run.oracle}
			m := bootBare(t, cfg, code, pairCodeVA)
			m.SwitchMode(run.mode)
			if err := m.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			if !m.Dom.ShutdownReq {
				t.Fatal("guest did not shut down")
			}
			regs := &m.Dom.VCPUs[0].Regs
			if got := regs[uops.RegRBX]; got != 2 {
				t.Errorf("(a) data page into code page: f returned %d after the store, want 2", got)
			}
			if got := regs[uops.RegR12]; got != 2 {
				t.Errorf("(b) code page into code page: g returned %d after the store, want 2", got)
			}
		})
	}
}
