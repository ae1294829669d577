// Quickstart: assemble a small x86-64 program with the DSL, run it on
// the cycle accurate out-of-order core, and read the statistics — the
// smallest end-to-end use of the simulator. Run it with
//
//	go test -v ./examples/quickstart
package quickstart_test

import (
	"fmt"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/mem"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
	"ptlsim/internal/x86"
)

// quickSys is a minimal system layer: ptlcall stops the run.
type quickSys struct{ done bool }

func (s *quickSys) Hypercall(c *vm.Context) uops.Fault { return uops.FaultGP }
func (s *quickSys) Ptlcall(c *vm.Context)              { s.done = true; c.Running = false }
func (s *quickSys) ReadTSC(c *vm.Context) uint64       { return 0 }
func (s *quickSys) Cpuid(c *vm.Context)                { c.Regs[uops.RegRAX] = 0 }
func (s *quickSys) EventPending(c *vm.Context) bool    { return false }

func Example() {
	const codeVA, dataVA, stackVA = 0x400000, 0x600000, 0x7F0000

	// 1. Write a guest program: sum the bytes of a buffer.
	a := x86.NewAssembler(codeVA)
	a.Mov(x86.R(x86.RSI), x86.I(dataVA))
	a.Mov(x86.R(x86.RCX), x86.I(4096))
	a.Mov(x86.R(x86.RAX), x86.I(0))
	a.While(func() x86.Cond {
		a.Cmp(x86.R(x86.RCX), x86.I(0))
		return x86.CondNE
	}, func() {
		a.Movzx(x86.RDX, x86.M(x86.RSI, 0), 1)
		a.Add(x86.R(x86.RAX), x86.R(x86.RDX))
		a.Inc(x86.R(x86.RSI))
		a.Dec(x86.R(x86.RCX))
	})
	a.Ptlcall() // break out to the simulator
	code, err := a.Bytes()
	must(err)

	// 2. Build a tiny guest: physical memory, page tables, loaded code.
	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	flags := mem.PTEWritable | mem.PTEUser
	for off := uint64(0); off < uint64(len(code))+mem.PageSize; off += mem.PageSize {
		must(as.Map(codeVA+off, pm.AllocPage(), flags))
	}
	must(as.Map(dataVA, pm.AllocPage(), flags))
	must(as.Map(stackVA, pm.AllocPage(), flags))

	machine := &vm.Machine{PM: pm}
	ctx := vm.NewContext(machine, 0)
	ctx.CR3 = as.CR3()
	ctx.RIP = codeVA
	ctx.Regs[uops.RegRSP] = stackVA + 0x1000
	if f := ctx.WriteVirtBytes(codeVA, code); f != uops.FaultNone {
		panic(f)
	}
	// Fill the buffer with a known pattern: sum = 4096 * 7.
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = 7
	}
	if f := ctx.WriteVirtBytes(dataVA, buf); f != uops.FaultNone {
		panic(f)
	}

	// 3. Run on the out-of-order core, cycle by cycle.
	sys := &quickSys{}
	tree := stats.NewTree()
	bbc := bbcache.New(1024, tree, "bb")
	coreModel := ooo.New(0, ooo.DefaultConfig(), []*vm.Context{ctx}, sys, bbc, tree, "ooo")
	cycles := uint64(0)
	for ; !sys.done && cycles < 10_000_000; cycles++ {
		must(coreModel.Cycle(cycles))
	}

	// 4. Results.
	fmt.Printf("result: rax = %d (want %d)\n", ctx.Regs[uops.RegRAX], 4096*7)
	insns := tree.Lookup("ooo.commit.insns").Value()
	fmt.Printf("cycles: %d  instructions: %d  IPC: %.2f\n",
		cycles, insns, float64(insns)/float64(cycles))
	fmt.Printf("L1D: %d accesses, %d misses\n",
		tree.Lookup("ooo.cache.l1d.accesses").Value(),
		tree.Lookup("ooo.cache.l1d.misses").Value())
	fmt.Printf("branches: %d (%d mispredicted)\n",
		tree.Lookup("ooo.branches").Value(),
		tree.Lookup("ooo.mispredicts").Value())
	// Output:
	// result: rax = 28672 (want 28672)
	// cycles: 44265  instructions: 28678  IPC: 0.65
	// L1D: 4108 accesses, 69 misses
	// branches: 8193 (1 mispredicted)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
