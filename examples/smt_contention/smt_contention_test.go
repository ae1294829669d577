// smt_contention runs two SMT hardware threads hammering a shared
// counter with LOCK-prefixed read-modify-writes, showing the interlock
// controller (paper §4.4) arbitrating the line: no update is lost, and
// the lock-replay statistics expose the contention. Run it with
//
//	go test -v ./examples/smt_contention
package smt_contention_test

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

type smtSys struct{ stopped [2]bool }

func (s *smtSys) Hypercall(c *vm.Context) uops.Fault { return uops.FaultGP }
func (s *smtSys) Ptlcall(c *vm.Context) {
	s.stopped[c.ID] = true
	c.Running = false
}
func (s *smtSys) ReadTSC(c *vm.Context) uint64    { return 0 }
func (s *smtSys) Cpuid(c *vm.Context)             {}
func (s *smtSys) EventPending(c *vm.Context) bool { return false }

func Example() {
	const codeVA, dataVA, stackVA = 0x400000, 0x600000, 0x7F0000
	const iterations = 5000

	a := x86.NewAssembler(codeVA)
	a.Mov(x86.R(x86.RDI), x86.I(dataVA))
	a.Mov(x86.R(x86.RCX), x86.I(iterations))
	a.While(func() x86.Cond {
		a.Cmp(x86.R(x86.RCX), x86.I(0))
		return x86.CondNE
	}, func() {
		a.Mov(x86.R(x86.RBX), x86.I(1))
		a.LockXadd(x86.M(x86.RDI, 0), x86.R(x86.RBX))
		a.Dec(x86.R(x86.RCX))
	})
	a.Ptlcall()
	code, err := a.Bytes()
	must(err)

	pm := mem.NewPhysMem()
	as := mem.NewAddressSpace(pm)
	flags := mem.PTEWritable | mem.PTEUser
	must(as.Map(codeVA, pm.AllocPage(), flags))
	must(as.Map(dataVA, pm.AllocPage(), flags))
	must(as.Map(stackVA, pm.AllocPage(), flags))
	must(as.Map(stackVA-0x4000, pm.AllocPage(), flags))

	machine := &vm.Machine{PM: pm}
	mkctx := func(id int) *vm.Context {
		ctx := vm.NewContext(machine, id)
		ctx.CR3 = as.CR3()
		ctx.RIP = codeVA
		ctx.Regs[uops.RegRSP] = uint64(stackVA) + 0x1000 - uint64(id)*0x4000
		return ctx
	}
	ctx0, ctx1 := mkctx(0), mkctx(1)
	if f := ctx0.WriteVirtBytes(codeVA, code); f != uops.FaultNone {
		panic(f)
	}

	sys := &smtSys{}
	tree := stats.NewTree()
	bbc := bbcache.New(1024, tree, "bb")
	coreModel := ooo.New(0, ooo.SMTConfig(2), []*vm.Context{ctx0, ctx1}, sys, bbc, tree, "smt")

	var cycles uint64
	for ; cycles < 50_000_000; cycles++ {
		if sys.stopped[0] && sys.stopped[1] {
			break
		}
		must(coreModel.Cycle(cycles))
	}

	counter, _ := ctx0.ReadVirt(dataVA, 8)
	fmt.Printf("two SMT threads, %d locked increments each\n", iterations)
	fmt.Printf("shared counter: %d (want %d) — %s\n", counter, 2*iterations,
		verdict(counter == 2*iterations))
	fmt.Printf("cycles: %d  committed insns: %d\n",
		cycles, tree.Lookup("smt.commit.insns").Value())
	fmt.Printf("interlock replays (lock contention): %d\n",
		tree.Lookup("smt.lock_replays").Value())
	// Output:
	// two SMT threads, 5000 locked increments each
	// shared counter: 10000 (want 10000) — no lost updates
	// cycles: 71606  committed insns: 60010
	// interlock replays (lock contention): 90216
}

func verdict(ok bool) string {
	if ok {
		return "no lost updates"
	}
	return "LOST UPDATES"
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
