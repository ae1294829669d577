package ooo_test

import (
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/guest"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

// BenchmarkCoreCycle is the per-layer benchmark of the out-of-order
// core loop: whole full-system runs on the K8 core, reported per busy
// simulated cycle and per committed uop, with the fraction of those
// cycles that ran the pipeline stages (a Core.Cycle call; the machine's
// next-event clock jumps over the others) and allocations (per run). The two guests use the loop in opposite ways:
// rsync keeps the pipeline busy (IPC about 0.7), the memwalk-like
// pointer chase and store sweep leave it stalled on L2 and DTLB misses
// and writebacks (IPC about 0.1). `make ooo-profile` runs this under pprof and prints host time
// by pipeline stage.
func BenchmarkCoreCycle(b *testing.B) {
	mcfg := core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1}
	b.Run("rsync", func(b *testing.B) {
		benchRuns(b, "rsync ok", func() (*core.Machine, error) {
			return experiments.Boot(experiments.BenchScale(), mcfg, core.ModeSim)
		})
	})
	b.Run("memwalk-like", func(b *testing.B) {
		spec, err := guest.ChaseBenchmark()
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
	var stepped uint64
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
		stepped += m.Stepped
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(cycles), "ns/cycle")
	b.ReportMetric(ns/float64(uops), "ns/commit-uop")
	b.ReportMetric(float64(stepped)/float64(cycles), "stepped-frac")
}
