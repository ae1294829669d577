// Package guests holds guest programs that exist only for the
// benchmark: workloads the simulator's own internal/guest package does
// not need, written with the same x86 macro-assembler and booted by
// the same kern.Build.
package guests

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"ptlsim/internal/kern"
	"ptlsim/internal/x86"
)

// Memwalk geometry. The region is 4x the K8 configuration's 1 MB L2
// and 1024 pages against a 32-entry DTLB, so a random walk over its
// cache lines misses the L1, the L2 and the DTLB on almost every step.
const (
	MemwalkRegion = 4 << 20
	memwalkLine   = 64
	memwalkLines  = MemwalkRegion / memwalkLine
	memwalkPages  = MemwalkRegion / 4096

	// MemwalkChaseSteps and memwalkSweepPasses size one run to about one and
	// a half host seconds on the K8 core of an unloaded 2-vCPU VM: the chase
	// visits 5/8 of the lines once (nine tenths of the simulated cycles,
	// three quarters of the host time), then the sweep dirties every
	// line four times over. The split keeps all three properties
	// TestMemwalkIsMemoryBound pins with margin.
	MemwalkChaseSteps  = 5 * memwalkLines / 8
	memwalkSweepPasses = 4

	// memwalkSweepUnroll stores per sweep loop iteration: unrolled so the
	// sweep is stores, not loop overhead.
	memwalkSweepUnroll = 8

	// memwalkSweepStep is the odd increment between swept store values.
	memwalkSweepStep = 0x9E3779B97F4A7C15

	// MemwalkTimerPeriod is the guest timer period in cycles, the same
	// scaled tick the rsync workloads use.
	MemwalkTimerPeriod = 220_000

	// Line layout: [0,8) next-line pointer, [8,16) value summed by the
	// chase, [16,24) slot the sweep stores into.
	offNext  = 0
	offValue = 8
	offSweep = 16

	hexDigits = "0123456789abcdef"
	okPrefix  = "memwalk ok  "
)

// Memwalk builds the memory-bound guest for seed: one process that
// (1) chases MemwalkChaseSteps dependent pointers through a seeded
// single-cycle random permutation of the region's cache lines, summing
// a value from each line it lands on, (2) sweeps the region
// memwalkSweepPasses times with one 8-byte store per line
// (write-allocate, then dirty writebacks as the sweep evicts what it
// wrote a megabyte earlier), (3) reads one swept slot per
// page back, and (4) prints "memwalk ok  <checksum>". It returns the
// domain spec and the exact console output a correct run produces,
// computed here in Go from the same seed.
func Memwalk(seed int64) (kern.BuildSpec, string, error) {
	data, want := memwalkData(seed)
	code, err := memwalkCode()
	if err != nil {
		return kern.BuildSpec{}, "", fmt.Errorf("guests: memwalk: %w", err)
	}
	spec := kern.BuildSpec{
		Procs: []kern.ProcSpec{{
			Name: "memwalk", Code: code, Data: data,
			DataPages: memwalkPages + 1,
		}},
		TimerPeriod: MemwalkTimerPeriod,
	}
	return spec, fmt.Sprintf("%s%016x\n", okPrefix, want), nil
}

// memwalkData lays out the region (plus the hex digit table on the
// page after it) and computes the checksum the guest must print.
func memwalkData(seed int64) ([]byte, uint64) {
	r := rand.New(rand.NewSource(seed))
	// Sattolo's algorithm: a uniformly random permutation with exactly
	// one cycle, so the chase never revisits a line within a run.
	next := make([]uint32, memwalkLines)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := memwalkLines - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	data := make([]byte, MemwalkRegion+len(hexDigits))
	values := make([]uint64, memwalkLines)
	for i := 0; i < memwalkLines; i++ {
		values[i] = r.Uint64()
		line := data[i*memwalkLine:]
		binary.LittleEndian.PutUint64(line[offNext:], kern.UserDataVA+uint64(next[i])*memwalkLine)
		binary.LittleEndian.PutUint64(line[offValue:], values[i])
	}
	copy(data[MemwalkRegion:], hexDigits)

	var chase uint64
	at := uint32(0)
	for s := 0; s < MemwalkChaseSteps; s++ {
		chase += values[at]
		at = next[at]
	}
	// Sweep iteration k (counted across passes) stores chase + k*step
	// into its memwalkSweepUnroll lines; the read-back sums what the last
	// pass left in the first line of every page.
	const itersPerPass = memwalkLines / memwalkSweepUnroll
	var readback uint64
	for p := 0; p < memwalkPages; p++ {
		k := uint64((memwalkSweepPasses-1)*itersPerPass + p*(4096/memwalkLine)/memwalkSweepUnroll)
		readback += chase + k*memwalkSweepStep
	}
	return data, chase ^ readback
}

func memwalkCode() ([]byte, error) {
	const (
		base = int64(kern.UserDataVA)
		tbl  = base + MemwalkRegion
		msg  = tbl + 64
	)
	a := x86.NewAssembler(kern.UserTextVA)

	// (1) Dependent pointer chase: RAX = current line, RBX = sum.
	a.Mov(x86.R(x86.RAX), x86.I(base))
	a.Xor(x86.R(x86.RBX), x86.R(x86.RBX))
	a.Mov(x86.R(x86.RCX), x86.I(MemwalkChaseSteps))
	chase := a.Mark()
	a.Add(x86.R(x86.RBX), x86.M(x86.RAX, offValue))
	a.Mov(x86.R(x86.RAX), x86.M(x86.RAX, offNext))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, chase)

	// (2) Stride-64 store sweep: iteration k stores RBX + k*step.
	a.Mov(x86.R(x86.RDX), x86.R(x86.RBX))
	step := uint64(memwalkSweepStep)
	a.Mov(x86.R(x86.R8), x86.I(int64(step)))
	a.Mov(x86.R(x86.R10), x86.I(memwalkSweepPasses))
	pass := a.Mark()
	a.Mov(x86.R(x86.RDI), x86.I(base))
	a.Mov(x86.R(x86.RCX), x86.I(memwalkLines/memwalkSweepUnroll))
	sweep := a.Mark()
	for u := int32(0); u < memwalkSweepUnroll; u++ {
		a.Mov(x86.M(x86.RDI, u*memwalkLine+offSweep), x86.R(x86.RDX))
	}
	a.Add(x86.R(x86.RDX), x86.R(x86.R8))
	a.Add(x86.R(x86.RDI), x86.I(memwalkSweepUnroll*memwalkLine))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, sweep)
	a.Dec(x86.R(x86.R10))
	a.Jcc(x86.CondNE, pass)

	// (3) Read one swept slot per page back into R9.
	a.Mov(x86.R(x86.RDI), x86.I(base))
	a.Mov(x86.R(x86.RCX), x86.I(memwalkPages))
	a.Xor(x86.R(x86.R9), x86.R(x86.R9))
	back := a.Mark()
	a.Add(x86.R(x86.R9), x86.M(x86.RDI, offSweep))
	a.Add(x86.R(x86.RDI), x86.I(4096))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, back)
	a.Xor(x86.R(x86.RBX), x86.R(x86.R9))

	// (4) "memwalk ok  <16 hex digits>\n" through the digit table.
	a.Mov(x86.R(x86.RDI), x86.I(msg))
	for i := 0; i < len(okPrefix); i++ {
		a.Movb(x86.M(x86.RDI, int32(i)), x86.I(int64(okPrefix[i])))
	}
	a.Add(x86.R(x86.RDI), x86.I(int64(len(okPrefix))))
	a.Mov(x86.R(x86.RSI), x86.I(tbl))
	a.Mov(x86.R(x86.RAX), x86.R(x86.RBX))
	a.Mov(x86.R(x86.RCX), x86.I(16))
	hex := a.Mark()
	a.Rol(x86.R(x86.RAX), x86.I(4))
	a.Mov(x86.R(x86.RDX), x86.R(x86.RAX))
	a.And(x86.R(x86.RDX), x86.I(15))
	a.Movzx(x86.RDX, x86.MIdx(x86.RSI, x86.RDX, 1, 0), 1)
	a.Movb(x86.M(x86.RDI, 0), x86.R(x86.RDX))
	a.Inc(x86.R(x86.RDI))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, hex)
	a.Movb(x86.M(x86.RDI, 0), x86.I('\n'))

	a.Mov(x86.R(x86.RDI), x86.I(msg))
	a.Mov(x86.R(x86.RSI), x86.I(int64(len(okPrefix))+17))
	a.Mov(x86.R(x86.RAX), x86.I(kern.SysConsWrite))
	a.Syscall()
	a.Mov(x86.R(x86.RAX), x86.I(kern.SysExit))
	a.Syscall()
	return a.Bytes()
}
