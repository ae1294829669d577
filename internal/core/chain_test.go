package core

import (
	"reflect"
	"testing"

	"ptlsim/internal/hv"
	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// Tests of native mode's steps to the next event (stepNative) and of the
// functional engine's successor links (seqcore's fetch).

// runCountingSteps is Machine.Run to the guest's shutdown, returning how
// many steps it took.
func runCountingSteps(t *testing.T, m *Machine, console string) (steps int) {
	t.Helper()
	for !m.Dom.ShutdownReq {
		if m.Cycle >= 50_000_000 {
			t.Fatalf("no shutdown after %d cycles", m.Cycle)
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		m.postStep()
		steps++
	}
	finished(t, m, nil, console)
	return steps
}

// TestChainedRunEqualsOneRoundSteps: a step hook makes every native step
// one round (a basic block per VCPU), the run the fault injector sees.
// Without one, a single VCPU's blocks run back to back until the next
// event. Both runs end on the same cycle with the same console, stats
// tree, event log and snapshot series, for a guest that sleeps and makes
// system calls (rsync), one with a timer that fires every 3,000 cycles
// (chase) and two VCPUs (pair, which takes no chained step).
func TestChainedRunEqualsOneRoundSteps(t *testing.T) {
	cfg := k8Machine()
	cfg.SnapshotCycles = 997
	for _, g := range []struct {
		name, console string
		boot          func() *Machine
		chains        bool
	}{
		{"rsync", "rsync ok", func() *Machine { return bootRsync(t, cfg, ModeNative) }, true},
		{"chase", "chase ok", func() *Machine { return bootChase(t, 3000, cfg) }, true},
		{"pair", "pair ok 0", func() *Machine { return bootPair(t, cfg) }, false},
	} {
		t.Run(g.name, func(t *testing.T) {
			run, ref := g.boot(), g.boot()
			run.SwitchMode(ModeNative)
			ref.SwitchMode(ModeNative)
			ref.SetStepHook(func(*Machine) {})
			steps := runCountingSteps(t, run, g.console)
			refSteps := runCountingSteps(t, ref, g.console)
			if got, want := fingerprintOf(t, run), fingerprintOf(t, ref); got != want {
				t.Fatalf("chained run differs from the one-round run:\n got %+v\nwant %+v", got, want)
			}
			if got, want := run.Series(), ref.Series(); !reflect.DeepEqual(got, want) || len(got.Snapshots) < 5 {
				t.Fatalf("snapshot series differ (%d and %d snapshots)", len(got.Snapshots), len(want.Snapshots))
			}
			t.Logf("%d cycles, %d insns: %d steps, %d one-round steps", run.Cycle, run.Insns(), steps, refSteps)
			if chained := steps < refSteps/4; chained != g.chains || run.rounds != ref.rounds {
				t.Fatalf("%d steps of %d rounds against %d one-round steps of %d", steps, run.rounds, refSteps, ref.rounds)
			}
		})
	}
}

// TestLinksFollowTheMapping: a bare guest calls f ("mov eax, 1; ret"),
// then either rewrites the PTE of f's page to a frame holding "mov eax,
// 2" (remap) or switches to an address space that maps that frame there
// (switch), and calls f again. The second call must run the new code in
// native mode: a successor link made by the first call stands only while
// the page tables and the address space it was made under do.
func TestLinksFollowTheMapping(t *testing.T) {
	const fPage = pairCodeVA + 0x1000
	a := x86.NewAssembler(pairCodeVA)
	f := a.NewLabel()
	a.Call(f)
	a.Mov(x86.R(x86.RBX), x86.R(x86.RAX))
	a.Mov(x86.R(x86.RAX), x86.R(x86.R13)) // the hypercall, its arguments in r14 and r15
	a.Mov(x86.R(x86.RDI), x86.R(x86.R14))
	a.Mov(x86.R(x86.RSI), x86.R(x86.R15))
	a.Hypercall()
	a.Call(f)
	a.Mov(x86.R(x86.R12), x86.R(x86.RAX))
	a.Mov(x86.R(x86.RAX), x86.I(hv.HcShutdown))
	a.Xor(x86.R(x86.RDI), x86.R(x86.RDI))
	a.Hypercall()
	for uint64(a.Len()) < fPage-pairCodeVA {
		a.Raw(0xCC)
	}
	a.Bind(f)
	a.Raw(0xB8, 1, 0, 0, 0, 0xC3)
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []string{"remap", "switch"} {
		t.Run(tc, func(t *testing.T) {
			m := bootBare(t, k8Machine(), code, pairCodeVA)
			m.SwitchMode(ModeNative)
			ctx := m.Dom.VCPUs[0]
			pm := ctx.M.PM
			frame := func(va uint64) uint64 { return mem.Walk(pm, ctx.CR3, va, mem.Access{}).MFN }
			page := make([]byte, mem.PageSize)
			if err := pm.ReadBytes(frame(fPage)<<mem.PageShift, page); err != nil {
				t.Fatal(err)
			}
			page[1] = 2
			alt := pm.AllocPage()
			if err := pm.WriteBytes(alt<<mem.PageShift, page); err != nil {
				t.Fatal(err)
			}
			regs := &ctx.Regs
			switch tc {
			case "remap":
				w := mem.Walk(pm, ctx.CR3, fPage, mem.Access{})
				pte := w.PTEAddrs[w.Depth-1]
				old, err := pm.Read(pte, 8)
				if err != nil {
					t.Fatal(err)
				}
				regs[uops.RegR13], regs[uops.RegR14], regs[uops.RegR15] = hv.HcMMUUpdate, pte, old&^mem.PTEAddrMask|alt<<mem.PageShift
			case "switch":
				as := mem.NewAddressSpace(pm)
				for _, va := range []uint64{pairCodeVA, pairStackVA} {
					if err := as.Map(va, frame(va), mem.PTEWritable); err != nil {
						t.Fatal(err)
					}
				}
				if err := as.Map(fPage, alt, mem.PTEWritable); err != nil {
					t.Fatal(err)
				}
				// Set the accessed and dirty bits up front: the guest's
				// walks then write no page table, and only the address
				// space tells the links apart.
				for _, va := range []uint64{pairCodeVA, fPage, pairStackVA} {
					mem.Walk(pm, as.CR3(), va, mem.Access{Write: true, SetAD: true})
				}
				regs[uops.RegR13], regs[uops.RegR14] = hv.HcNewBasePtr, as.CR3()
			}
			runToShutdown(t, m, "")
			if regs[uops.RegRBX] != 1 || regs[uops.RegR12] != 2 {
				t.Fatalf("f returned %d, then %d after the %s; want 1, then 2", regs[uops.RegRBX], regs[uops.RegR12], tc)
			}
		})
	}
}
