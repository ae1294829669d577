package guest

import (
	"encoding/binary"

	"ptlsim/internal/kern"
	"ptlsim/internal/x86"
)

// ChaseBenchmark builds a guest that follows 24,576 dependent pointers
// through a full-period permutation of the 65,536 cache lines of a
// 4 MiB region (four times the K8 L2, 1024 pages against a 32-entry
// DTLB), then sweeps the region twice with one 8-byte store per line
// (write-allocate misses that never wait for a miss buffer, then dirty
// writebacks as the sweep evicts what it wrote a megabyte earlier) and
// prints "chase ok": the two memory-bound phases of the benchmark's
// memwalk_ooo workload at under half its length. The per-layer
// benchmarks (BenchmarkCoreCycle, BenchmarkSeqStep) run it.
//
// This is a second copy of the chase and sweep phases of
// benchmark/guests.Memwalk, which the root module cannot import
// (benchmark/ is a module of its own); benchmark/guests should call
// this one once a change may touch benchmark/. Until then these must
// stay equal to memwalk.go for the per-layer numbers to describe
// memwalk_ooo: region (MemwalkRegion, 4 MiB), line (memwalkLine, 64),
// the next pointer at offset 0 of each line (offNext) based at
// kern.UserDataVA, a permutation with a single cycle over all lines
// (Sattolo's there, a full-period LCG here), one dependent load per
// loop iteration, the sweep's store at offset 16 of each line
// (offSweep), unrolled eight times (memwalkSweepUnroll), DataPages =
// region/4096 + 1, and TimerPeriod (MemwalkTimerPeriod, 220,000).
// Different on purpose: steps (3/8 of the lines against
// MemwalkChaseSteps' 5/8), two sweep passes against four, no per-line
// sum, no read-back and no checksum.
func ChaseBenchmark() (kern.BuildSpec, error) {
	const region = 4 << 20
	return Chase(region, 3*(region/64)/8, 2, 220_000)
}

// Chase builds the guest ChaseBenchmark describes at any size: steps
// dependent loads through a full-period permutation of the 64-byte lines
// of a region of `region` bytes (a power of two), then `passes` store
// sweeps over it, then "chase ok". Tests run it small, with a timer
// period short enough for ticks to land inside misses.
func Chase(region, steps, passes int, timerPeriod uint64) (kern.BuildSpec, error) {
	const (
		line   = 64
		unroll = 8
		base   = int64(kern.UserDataVA)
	)
	lines := region / line
	msg := base + int64(region)
	data := make([]byte, region)
	for i := 0; i < lines; i++ {
		// An LCG with multiplier ≡ 1 (mod 4) and odd increment visits
		// every residue of a power-of-two modulus.
		next := (i*20501 + 12345) % lines
		binary.LittleEndian.PutUint64(data[i*line:], kern.UserDataVA+uint64(next)*line)
	}
	a := x86.NewAssembler(kern.UserTextVA)
	a.Mov(x86.R(x86.RAX), x86.I(base))
	a.Mov(x86.R(x86.RCX), x86.I(int64(steps)))
	chase := a.Mark()
	a.Mov(x86.R(x86.RAX), x86.M(x86.RAX, 0))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, chase)
	// Stride-64 store sweep: RDX changes per iteration so that no store
	// repeats the last one's value.
	a.Mov(x86.R(x86.RDX), x86.R(x86.RAX))
	a.Mov(x86.R(x86.R10), x86.I(int64(passes)))
	pass := a.Mark()
	a.Mov(x86.R(x86.RDI), x86.I(base))
	a.Mov(x86.R(x86.RCX), x86.I(int64(lines/unroll)))
	sweep := a.Mark()
	for u := int32(0); u < unroll; u++ {
		a.Mov(x86.M(x86.RDI, u*line+16), x86.R(x86.RDX))
	}
	a.Inc(x86.R(x86.RDX))
	a.Add(x86.R(x86.RDI), x86.I(unroll*line))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, sweep)
	a.Dec(x86.R(x86.R10))
	a.Jcc(x86.CondNE, pass)
	const text = "chase ok\n"
	a.Mov(x86.R(x86.RDI), x86.I(msg))
	for i := 0; i < len(text); i++ {
		a.Movb(x86.M(x86.RDI, int32(i)), x86.I(int64(text[i])))
	}
	a.Mov(x86.R(x86.RSI), x86.I(int64(len(text))))
	a.Mov(x86.R(x86.RAX), x86.I(kern.SysConsWrite))
	a.Syscall()
	a.Mov(x86.R(x86.RAX), x86.I(kern.SysExit))
	a.Syscall()
	code, err := a.Bytes()
	if err != nil {
		return kern.BuildSpec{}, err
	}
	return kern.BuildSpec{
		Procs:       []kern.ProcSpec{{Name: "chase", Code: code, Data: data, DataPages: region/4096 + 1}},
		TimerPeriod: timerPeriod,
	}, nil
}
