package ooo_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
	"ptlsim/internal/x86"
)

// BenchmarkCoreCycle is the per-layer benchmark of the out-of-order
// core loop: whole full-system runs on the K8 core, reported per busy
// simulated cycle (a Core.Cycle call) and per committed uop, with
// allocations (per run). The two guests use the loop in opposite ways:
// rsync keeps the pipeline busy (IPC about 0.7), the memwalk-like
// pointer chase leaves it stalled on L2 and DTLB misses (IPC about
// 0.1). `make ooo-profile` runs this under pprof and prints host time
// by pipeline stage.
func BenchmarkCoreCycle(b *testing.B) {
	mcfg := core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1}
	b.Run("rsync", func(b *testing.B) {
		benchRuns(b, "rsync ok", func() (*core.Machine, error) {
			return experiments.Boot(experiments.BenchScale(), mcfg, core.ModeSim)
		})
	})
	b.Run("memwalk-like", func(b *testing.B) {
		spec, err := chaseGuest()
		if err != nil {
			b.Fatal(err)
		}
		benchRuns(b, "chase ok", func() (*core.Machine, error) {
			s := spec
			s.Tree = stats.NewTree()
			img, err := kern.Build(s)
			if err != nil {
				return nil, err
			}
			m := core.NewMachine(img.Domain, s.Tree, mcfg)
			m.SwitchMode(core.ModeSim)
			return m, nil
		})
	})
}

// benchRuns times b.N boot-to-shutdown runs; booting is not timed.
func benchRuns(b *testing.B, wantConsole string, boot func() (*core.Machine, error)) {
	b.ReportAllocs()
	var cycles, uops int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := boot()
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = m.Run(0)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(m.Dom.Console(), wantConsole) {
			b.Fatalf("guest failed: console %q", m.Dom.Console())
		}
		cycles += m.Tree.Lookup("core0.cycles").Value()
		uops += m.Tree.Lookup("core0.commit.uops").Value()
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(cycles), "ns/cycle")
	b.ReportMetric(ns/float64(uops), "ns/commit-uop")
}

// chaseGuest builds a guest that follows 24,576 dependent pointers
// through a full-period permutation of the 65,536 cache lines of a
// 4 MiB region (four times the K8 L2, 1024 pages against a 32-entry
// DTLB) and then prints "chase ok": the memory-bound shape of the
// benchmark's memwalk_ooo workload at a third of its length.
//
// This is a second copy of the chase phase of benchmark/guests.Memwalk,
// which the root module cannot import (benchmark/ is a module of its
// own); the guest builder should move under internal/ with
// benchmark/guests calling it once a change may touch benchmark/. Until
// then these must stay equal to memwalk.go for the per-layer numbers to
// describe memwalk_ooo: region (MemwalkRegion, 4 MiB), line (memwalkLine,
// 64), the next pointer at offset 0 of each line (offNext) based at
// kern.UserDataVA, a permutation with a single cycle over all lines
// (Sattolo's there, a full-period LCG here), one dependent load per
// loop iteration, DataPages = region/4096 + 1, and TimerPeriod
// (MemwalkTimerPeriod, 220,000). Different on purpose: steps (3/8 of
// the lines against MemwalkChaseSteps' 5/8), no per-line sum, no sweep
// phase.
func chaseGuest() (kern.BuildSpec, error) {
	const (
		region = 4 << 20
		line   = 64
		lines  = region / line
		steps  = 3 * lines / 8
		base   = int64(kern.UserDataVA)
		msg    = base + region
	)
	data := make([]byte, region)
	for i := 0; i < lines; i++ {
		// An LCG with multiplier ≡ 1 (mod 4) and odd increment visits
		// every residue of a power-of-two modulus.
		next := (i*20501 + 12345) % lines
		binary.LittleEndian.PutUint64(data[i*line:], kern.UserDataVA+uint64(next)*line)
	}
	a := x86.NewAssembler(kern.UserTextVA)
	a.Mov(x86.R(x86.RAX), x86.I(base))
	a.Mov(x86.R(x86.RCX), x86.I(steps))
	chase := a.Mark()
	a.Mov(x86.R(x86.RAX), x86.M(x86.RAX, 0))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, chase)
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
		TimerPeriod: 220_000,
	}, nil
}
