// sampling demonstrates statistical sampled simulation (paper §2.3):
// the full-system benchmark runs mostly in fast native mode, with the
// cycle accurate core engaged for short instruction windows — the
// technique the paper describes as "100 million instruction spans out
// of every billion" for rapid profiling, here scaled down.
package main

import (
	"fmt"
	"os"
	"time"

	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/experiments"
)

func run(sample *cosim.SampleConfig) (time.Duration, int64, int64, string) {
	m, err := experiments.Boot(experiments.BenchScale(), core.DefaultConfig(), core.ModeNative)
	if err != nil {
		panic(err)
	}
	tree := m.Tree
	start := time.Now()
	if sample == nil {
		m.SwitchMode(core.ModeSim)
		err = m.Run(0)
	} else {
		err = cosim.RunSampled(m, *sample, 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return time.Since(start),
		tree.Lookup("core0.commit.insns").Value(),
		tree.Lookup("seq0.insns").Value(),
		m.Dom.Console()
}

func main() {
	fmt.Println("full cycle accurate run...")
	fullWall, fullSim, _, console := run(nil)
	fmt.Printf("  %v, %d instructions simulated, output %q\n", fullWall, fullSim, console)

	fmt.Println("sampled run (20k simulated insns per 180k native)...")
	cfg := cosim.SampleConfig{SimInsns: 20_000, NativeInsns: 180_000}
	sampWall, sampSim, sampNative, console2 := run(&cfg)
	fmt.Printf("  %v, %d simulated + %d native instructions, output %q\n",
		sampWall, sampSim, sampNative, console2)

	if console != console2 {
		fmt.Println("ERROR: sampled run changed program behavior")
		os.Exit(1)
	}
	frac := float64(sampSim) / float64(sampSim+sampNative) * 100
	fmt.Printf("\nonly %.1f%% of instructions went through the detailed core;\n", frac)
	fmt.Printf("guest-visible behavior is identical (same console output),\n")
	fmt.Printf("and virtual time stayed continuous across every mode switch.\n")
}
