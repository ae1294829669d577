package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptlsim/internal/evlog"
	"ptlsim/internal/guest"
	"ptlsim/internal/hv"
	"ptlsim/internal/kern"
	"ptlsim/internal/mem"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// Guests of the machine-level tests of the next-event clock.

var update = flag.Bool("update", false, "rewrite testdata/stats_paths.txt from this tree's stats tree")

// bootChase builds guest.ChaseBenchmark at test size into a machine in
// simulation mode with an event log attached: a pointer chase of 1,200
// steps over the 4,096 lines of a 256 KiB region (64 pages against the
// K8 core's 32-entry DTLB; every first touch misses to memory) and one
// store sweep over it. A timer period of a few thousand cycles makes
// most ticks fire while a miss is outstanding; 0 is the kernel's
// default period.
func bootChase(t testing.TB, timerPeriod uint64, cfg Config) *Machine {
	t.Helper()
	spec, err := guest.Chase(256<<10, 1200, 1, timerPeriod)
	if err != nil {
		t.Fatal(err)
	}
	spec.Tree = stats.NewTree()
	img, err := kern.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(img.Domain, spec.Tree, cfg)
	m.SetEventLog(evlog.New(1 << 20))
	m.SwitchMode(ModeSim)
	return m
}

func k8Machine() Config {
	return Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1}
}

// Layout of the two-VCPU guest.
const (
	pairCodeVA  = 0x400000
	pairDataVA  = 0x600000 // shared: the counter's line, the done flag, the message
	pairChaseVA = 0x800000 // 16 pages per VCPU
	pairStackVA = 0x7F0000
	pairIters   = 300
)

// bootPair builds a kernel-less two-VCPU domain with both VCPUs up (the
// cores read a context's registers when they are built, so VCPU 1 is
// started by bootBare and not by a VCPUUp hypercall): both run pairIters
// rounds of a locked xadd on one shared line (the loop of
// examples/smt_contention) followed by a load from a new line of a
// private 16-page window, and by eight more dependent ones every eighth
// round, so each of them contends for the line and waits for misses
// while the other may be busy; VCPU 1 then raises the done flag and
// halts, VCPU 0 waits for the flag, prints the counter's low digit and
// shuts the domain down. With ThreadsPerCore 2 the VCPUs are SMT threads
// of one core, with 1 they are two cores (MOESI when cfg says so).
func bootPair(t testing.TB, cfg Config) *Machine {
	t.Helper()
	a := x86.NewAssembler(pairCodeVA)
	work, worker, boot := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Jmp(boot)

	a.Bind(work) // r9 = private window
	a.Mov(x86.R(x86.RCX), x86.I(pairIters))
	a.Mov(x86.R(x86.R8), x86.I(pairDataVA))
	a.Xor(x86.R(x86.RDI), x86.R(x86.RDI))
	loop := a.Mark()
	a.Mov(x86.R(x86.RBX), x86.I(1))
	a.LockXadd(x86.M(x86.R8, 0), x86.R(x86.RBX))
	miss := func() {
		// A new page and a new line each time; the loaded zero feeds the
		// next address, so the misses do not overlap.
		a.Mov(x86.R(x86.RAX), x86.MIdx(x86.R9, x86.RDI, 1, 0))
		a.Add(x86.R(x86.RDI), x86.R(x86.RAX))
		a.Add(x86.R(x86.RDI), x86.I(0x1040))
		a.And(x86.R(x86.RDI), x86.I(0xFFFF))
	}
	miss()
	a.Test(x86.R(x86.RCX), x86.I(7))
	a.IfThen(x86.CondE, func() { // every eighth round: a long stall
		for i := 0; i < 8; i++ {
			miss()
		}
	})
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, loop)
	a.Ret()

	a.Bind(worker)
	a.Mov(x86.R(x86.R9), x86.I(pairChaseVA+0x10000))
	a.Call(work)
	a.Mov(x86.R(x86.R8), x86.I(pairDataVA))
	a.Mov(x86.M(x86.R8, 0x100), x86.I(1))
	halt := a.Mark()
	a.Hlt()
	a.Jmp(halt)

	a.Bind(boot)
	a.Mov(x86.R(x86.R9), x86.I(pairChaseVA))
	a.Call(work)
	a.Mov(x86.R(x86.R8), x86.I(pairDataVA))
	wait := a.Mark()
	a.Pause()
	a.Cmp(x86.M(x86.R8, 0x100), x86.I(1))
	a.Jcc(x86.CondNE, wait)
	// "pair ok N\n" where N is the counter modulo 10 (2*pairIters = 600: 0).
	const text = "pair ok 0\n"
	for i := 0; i < len(text); i++ {
		a.Movb(x86.M(x86.R8, int32(0x200+i)), x86.I(int64(text[i])))
	}
	a.Mov(x86.R(x86.RAX), x86.M(x86.R8, 0))
	a.Xor(x86.R(x86.RDX), x86.R(x86.RDX))
	a.Mov(x86.R(x86.RCX), x86.I(10))
	a.Div(x86.R(x86.RCX))
	a.Add(x86.R(x86.RDX), x86.I('0'))
	a.Movb(x86.M(x86.R8, 0x200+8), x86.R(x86.RDX))
	a.Mov(x86.R(x86.RAX), x86.I(hv.HcConsoleWrite))
	a.Lea(x86.RDI, x86.M(x86.R8, 0x200))
	a.Mov(x86.R(x86.RSI), x86.I(int64(len(text))))
	a.Hypercall()
	a.Mov(x86.R(x86.RAX), x86.I(hv.HcShutdown))
	a.Xor(x86.R(x86.RDI), x86.R(x86.RDI))
	a.Hypercall()
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	return bootBare(t, cfg, code, pairCodeVA, a.Addr(worker))
}

// bootBare loads code into a kernel-less domain with one VCPU per entry
// point, all of them up in kernel mode on their own stacks, and returns
// it as a machine in simulation mode with an event log attached. Such a
// domain has no timer unless its guest asks for one.
func bootBare(t testing.TB, cfg Config, code []byte, entries ...uint64) *Machine {
	t.Helper()
	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	mapPages := func(va uint64, n int) {
		for i := 0; i < n; i++ {
			if err := as.Map(va+uint64(i)*mem.PageSize, pm.AllocPage(), mem.PTEWritable); err != nil {
				t.Fatal(err)
			}
		}
	}
	mapPages(pairCodeVA, len(code)/mem.PageSize+1)
	mapPages(pairDataVA, 1)
	mapPages(pairChaseVA, 32)
	tree := stats.NewTree()
	dom := hv.NewDomain(&vm.Machine{PM: pm}, len(entries), tree)
	for i, entry := range entries {
		stack := pairStackVA - uint64(i)*0x4000
		mapPages(stack, 1)
		ctx := dom.VCPUs[i]
		ctx.Kernel, ctx.Running = true, true
		ctx.CR3 = as.CR3()
		ctx.RIP = entry
		ctx.Regs[uops.RegRSP] = stack + 0x1000
	}
	if f := dom.VCPUs[0].WriteVirtBytes(pairCodeVA, code); f != uops.FaultNone {
		t.Fatalf("loading the guest: %v", f)
	}
	m := NewMachine(dom, tree, cfg)
	m.SetEventLog(evlog.New(1 << 20))
	m.SwitchMode(ModeSim)
	return m
}

// fingerprint is the simulated outcome of a run.
type fingerprint struct {
	cycles  uint64
	insns   int64
	console string
	stats   uint32
	evlog   uint32
	events  uint64
}

func fingerprintOf(t testing.TB, m *Machine) fingerprint {
	t.Helper()
	fp := fingerprint{cycles: m.Cycle, insns: m.Insns(), console: m.Dom.Console()}
	h := fnv.New32a()
	for _, p := range m.Tree.Paths() {
		fmt.Fprintf(h, "%s=%d\n", p, m.Tree.Lookup(p).Value())
	}
	fp.stats = h.Sum32()
	if l := m.EventLog(); l != nil {
		if l.Recorded() > uint64(l.Cap()) {
			t.Fatalf("event ring wrapped (%d events, capacity %d)", l.Recorded(), l.Cap())
		}
		h := fnv.New32a()
		if err := evlog.WriteText(h, l.Events()); err != nil {
			t.Fatal(err)
		}
		fp.evlog, fp.events = h.Sum32(), l.Recorded()
	}
	return fp
}

// TestStatsPathsUnchanged: the stats tree of a finished K8 run has
// exactly the paths it had before the next-event clock (the list in
// testdata was recorded on the parent tree). The benchmark's golden
// fingerprint hashes every path=value, so a counter added to the tree —
// a count of jumped cycles, say — is a changed simulated outcome.
func TestStatsPathsUnchanged(t *testing.T) {
	m := bootChase(t, 3000, k8Machine())
	if err := m.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Dom.Console(), "chase ok") {
		t.Fatalf("guest failed: console %q", m.Dom.Console())
	}
	got := strings.Join(m.Tree.Paths(), "\n") + "\n"
	path := filepath.Join("testdata", "stats_paths.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("stats tree paths differ from %s:\n%s", path, got)
	}
}
