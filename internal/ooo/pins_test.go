package ooo

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/evlog"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

var update = flag.Bool("update", false, "rewrite testdata/pins.json from this tree's behaviour")

// pin is the simulated outcome of one pinned run. benchmark/golden.json
// fingerprints only K8Config, one thread, no load hoisting and no event
// log; these pins hold the same bit-identical contract for the
// configurations it does not reach. The named counters are there to
// show the run exercised what it is meant to (and to say which counter
// moved when the stats FNV does).
type pin struct {
	Cycles         uint64 `json:"cycles"`
	Insns          int64  `json:"insns"`
	StatsFNV       uint32 `json:"stats_fnv32"`
	EvlogFNV       uint32 `json:"evlog_fnv32,omitempty"`
	EvlogEvents    uint64 `json:"evlog_events,omitempty"`
	Mispredicts    int64  `json:"mispredicts"`
	Replays        int64  `json:"replays"`
	LoadSpecFlush  int64  `json:"load_spec_flushes"`
	Forwards       int64  `json:"store_forwards"`
	Interrupts     int64  `json:"interrupts"`
	PipelineFlushs int64  `json:"pipeline_flushes"`
}

const pinHandlerVA = codeVA + 0x800

// progPins is a small guest that touches every recovery path of the
// core: LCG-driven unpredictable branches, calls and returns (RAS
// checkpoints, recursion with push/pop forwarding), a store whose
// address comes out of a divide followed by a load that can issue
// first and sometimes overlaps it (load-hoisting mis-speculation), a
// locked RMW on a line shared between SMT threads, FP, and REP MOVS.
// Each hardware thread derives its seed and its private data window
// from its stack pointer.
func progPins(t *testing.T) []byte {
	code := asmProg(t, func(a *x86.Assembler) {
		leaf, fib, fibBase, main := a.NewLabel(), a.NewLabel(), a.NewLabel(), a.NewLabel()
		a.Jmp(main)

		a.Bind(leaf) // rax = rdi*3 + 1
		a.Lea(x86.RAX, x86.MIdx(x86.RDI, x86.RDI, 2, 1))
		a.Ret()

		a.Bind(fib)
		a.Cmp(x86.R(x86.RDI), x86.I(2))
		a.Jcc(x86.CondL, fibBase)
		a.Push(x86.R(x86.RDI))
		a.Sub(x86.R(x86.RDI), x86.I(1))
		a.Call(fib)
		a.Pop(x86.R(x86.RDI))
		a.Push(x86.R(x86.RAX))
		a.Sub(x86.R(x86.RDI), x86.I(2))
		a.Call(fib)
		a.Pop(x86.R(x86.RDX))
		a.Add(x86.R(x86.RAX), x86.R(x86.RDX))
		a.Ret()
		a.Bind(fibBase)
		a.Mov(x86.R(x86.RAX), x86.R(x86.RDI))
		a.Ret()

		a.Bind(main)
		a.Mov(x86.R(x86.RSI), x86.R(x86.RSP)) // per-thread seed
		a.Mov(x86.R(x86.RBP), x86.R(x86.RSP))
		a.And(x86.R(x86.RBP), x86.I(0x4000)) // thread 1's stack has this bit set
		a.Shr(x86.R(x86.RBP), x86.I(4))
		a.Add(x86.R(x86.RBP), x86.I(dataVA))        // private window: dataVA or dataVA+0x400
		a.Mov(x86.R(x86.R14), x86.I(dataVA+0x1000)) // the handler clobbers r10, r11
		a.Mov(x86.R(x86.R12), x86.I(240))
		a.Mov(x86.R(x86.R13), x86.I(7))
		a.Mov(x86.R(x86.RBX), x86.I(0))
		a.Cvtsi2sd(x86.XMM0, x86.R(x86.RBX))
		a.While(func() x86.Cond {
			a.Cmp(x86.R(x86.R12), x86.I(0))
			return x86.CondNE
		}, func() {
			a.Mov(x86.R(x86.RAX), x86.I(0x5851F42D4C957F2D))
			a.Imul(x86.RSI, x86.R(x86.RAX))
			a.Mov(x86.R(x86.RAX), x86.I(0x14057B7EF767814F))
			a.Add(x86.R(x86.RSI), x86.R(x86.RAX))
			a.Test(x86.R(x86.RSI), x86.I(0x10000))
			a.IfElse(x86.CondNE, func() {
				a.Add(x86.R(x86.RBX), x86.I(3))
			}, func() {
				a.Sub(x86.R(x86.RBX), x86.I(1))
			})
			// Store to slot (rsi>>40)%7; the address waits for the divide.
			a.Mov(x86.R(x86.RAX), x86.R(x86.RSI))
			a.Shr(x86.R(x86.RAX), x86.I(40))
			a.Xor(x86.R(x86.RDX), x86.R(x86.RDX))
			a.Div(x86.R(x86.R13))
			a.Mov(x86.MIdx(x86.RBP, x86.RDX, 8, 0x40), x86.R(x86.RSI))
			// Load of slot 3: its address is ready at once.
			a.Mov(x86.R(x86.R8), x86.M(x86.RBP, 0x40+24))
			a.Add(x86.R(x86.RBX), x86.R(x86.R8))
			// A narrow store under a wide load: partial overlap, the load
			// replays until the store has committed.
			a.Movl(x86.M(x86.RBP, 0x100), x86.R(x86.RSI))
			a.Mov(x86.R(x86.R8), x86.M(x86.RBP, 0x100))
			a.Xor(x86.R(x86.RBX), x86.R(x86.R8))
			a.Mov(x86.R(x86.RDI), x86.R(x86.RBX))
			a.Call(leaf)
			a.Add(x86.R(x86.RBX), x86.R(x86.RAX))
			a.Mov(x86.R(x86.R9), x86.I(1))
			a.LockXadd(x86.M(x86.R14, 0), x86.R(x86.R9))
			a.Cvtsi2sd(x86.XMM1, x86.R(x86.R12))
			a.Addsd(x86.XMM0, x86.R(x86.XMM1))
			a.Dec(x86.R(x86.R12))
		})
		a.Mov(x86.R(x86.RSI), x86.R(x86.RBP))
		a.Lea(x86.RDI, x86.M(x86.RBP, 0x200))
		a.Mov(x86.R(x86.RCX), x86.I(32))
		a.RepMovs(8)
		a.Mov(x86.R(x86.RDI), x86.I(9))
		a.Call(fib)
		a.Add(x86.R(x86.RBX), x86.R(x86.RAX))
		a.Cvttsd2si(x86.RCX, x86.R(x86.XMM0))
		a.Ptlcall()
	})
	if len(code) >= pinHandlerVA-codeVA {
		t.Fatalf("pin guest is %d bytes, overlaps its handler", len(code))
	}
	return code
}

func statsFNV(tree *stats.Tree) uint32 {
	h := fnv.New32a()
	for _, p := range tree.Paths() {
		fmt.Fprintf(h, "%s=%d\n", p, tree.Lookup(p).Value())
	}
	return h.Sum32()
}

// runPin runs progPins on nthreads hardware threads of one core and
// returns its fingerprint. Event upcalls are raised at fixed cycles
// (thread 0 twice, the last thread once) so interrupt delivery with
// work in flight is part of every pin.
func runPin(t *testing.T, cfg Config, nthreads int, withEvlog bool) pin {
	t.Helper()
	g := buildGuest(t, progPins(t), nthreads)
	h := x86.NewAssembler(pinHandlerVA)
	h.Pop(x86.R(x86.R10))
	h.Pop(x86.R(x86.R11))
	h.Inc(x86.R(x86.R15))
	h.Iretq()
	handler, err := h.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	var ctxs []*vm.Context
	for i := 0; i < nthreads; i++ {
		ctx := g.newCtx(i)
		if i == 0 {
			if f := ctx.WriteVirtBytes(pinHandlerVA, handler); f != uops.FaultNone {
				t.Fatal(f)
			}
		}
		ctx.TrapEntry = pinHandlerVA
		ctx.KernelRSP = stackTop - 0x800 - uint64(i)*0x4000
		ctx.SetFlags(ctx.Flags() | x86.FlagIF)
		ctxs = append(ctxs, ctx)
	}
	tree := stats.NewTree()
	bbc := bbcache.New(4096, tree, "bb")
	core := New(0, cfg, ctxs, g.sys, bbc, tree, "ooo")
	var l *evlog.Log
	if withEvlog {
		l = evlog.New(1 << 18)
		core.SetEventLog(l)
	}
	done := func() bool {
		for _, s := range g.sys.stopped {
			if !s {
				return false
			}
		}
		return true
	}
	cyc := uint64(0)
	for ; cyc < 2_000_000 && !done(); cyc++ {
		switch cyc {
		case 1500, 6000:
			g.sys.events[0] = true
		case 3000:
			g.sys.events[nthreads-1] = true
		}
		if err := core.Cycle(cyc); err != nil {
			t.Fatalf("cycle %d: %v", cyc, err)
		}
		for i, ctx := range ctxs {
			if g.sys.events[i] && ctx.Kernel {
				g.sys.events[i] = false // acknowledged on handler entry
			}
		}
	}
	if !done() {
		t.Fatalf("pin run did not finish: %v", g.sys.stopped)
	}
	if err := core.Audit(); err != nil {
		t.Fatalf("audit after run: %v", err)
	}
	get := func(p string) int64 { return tree.Lookup("ooo." + p).Value() }
	p := pin{
		Cycles: cyc, Insns: core.Insns(), StatsFNV: statsFNV(tree),
		Mispredicts: get("mispredicts"), Replays: get("replays"),
		LoadSpecFlush: get("load_spec_flushes"), Forwards: get("store_forwards"),
		Interrupts: get("interrupts"), PipelineFlushs: get("pipeline_flushes"),
	}
	if l != nil {
		if l.Recorded() > uint64(l.Cap()) {
			t.Fatalf("event ring wrapped (%d events, capacity %d): the FNV would not cover the run",
				l.Recorded(), l.Cap())
		}
		hh := fnv.New32a()
		if err := evlog.WriteText(hh, l.Events()); err != nil {
			t.Fatal(err)
		}
		p.EvlogFNV, p.EvlogEvents = hh.Sum32(), l.Recorded()
	}
	return p
}

// TestBehaviourPins compares three configurations the benchmark's
// golden.json does not cover against fingerprints recorded before the
// core loop's host-side data structures were rebuilt: DefaultConfig
// (load hoisting on, so executeStore raises load-speculation
// redirects), two SMT threads, and K8Config with the event log
// attached (the order of every recorded event is part of the pin).
func TestBehaviourPins(t *testing.T) {
	got := map[string]pin{
		"default":    runPin(t, DefaultConfig(), 1, false),
		"smt2":       runPin(t, SMTConfig(2), 2, false),
		"k8_evlog":   runPin(t, K8Config(), 1, true),
		"smt2_again": runPin(t, SMTConfig(2), 2, false),
	}
	if got["smt2"] != got["smt2_again"] {
		t.Fatalf("two SMT runs differ:\n%+v\n%+v", got["smt2"], got["smt2_again"])
	}
	delete(got, "smt2_again")
	// The pins are worth something only if the runs reach the paths
	// they exist for.
	if got["default"].LoadSpecFlush == 0 {
		t.Fatal("DefaultConfig run raised no load-speculation flush")
	}
	for name, p := range got {
		if p.Mispredicts == 0 || p.Replays == 0 || p.Forwards == 0 || p.Interrupts == 0 {
			t.Fatalf("%s: run too tame to pin anything: %+v", name, p)
		}
	}
	path := filepath.Join("testdata", "pins.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with go test ./internal/ooo/ -run TestBehaviourPins -update)", err)
	}
	var want map[string]pin
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s moved:\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pins run, %d recorded", len(got), len(want))
	}
}
