package seqcore_test

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

// BenchmarkSeqStep is the per-layer benchmark of the functional
// engine: whole boot-to-shutdown runs in core.ModeNative, reported per
// committed x86 instruction, with uops per instruction and allocations
// (per run). rsync is the benchmark's rsync_seq guest (48 files of
// 8 KiB); the memwalk-like pointer chase and store sweep touch 1024
// data pages (the chase at random, the sweep in order), so it is the
// guest whose translations do not fit a small cache. `make
// seq-profile` runs this under pprof and prints host time by function.
func BenchmarkSeqStep(b *testing.B) {
	mcfg := core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1}
	b.Run("rsync", func(b *testing.B) {
		cfg := experiments.BenchScale()
		cfg.Corpus.NFiles = 48
		benchRuns(b, "rsync ok", func() (*core.Machine, error) {
			return experiments.Boot(cfg, mcfg, core.ModeNative)
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
			m.SwitchMode(core.ModeNative)
			return m, nil
		})
	})
}

// benchRuns times b.N boot-to-shutdown runs; booting is not timed.
func benchRuns(b *testing.B, wantConsole string, boot func() (*core.Machine, error)) {
	b.ReportAllocs()
	var insns, uops int64
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
		insns += m.Insns()
		uops += m.Tree.Lookup("seq0.uops").Value()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insns), "ns/insn")
	b.ReportMetric(float64(uops)/float64(insns), "uops/insn")
}
