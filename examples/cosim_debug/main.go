// cosim_debug demonstrates the self-debugging co-simulation feature
// (paper §2.3): the cycle accurate core is continuously validated
// against the functional reference engine, and a binary search over
// instruction counts isolates the first divergent instruction if the
// two ever disagree.
package main

import (
	"fmt"
	"os"

	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/experiments"
	"ptlsim/internal/guest"
	"ptlsim/internal/hv"
)

func main() {
	// A deterministic, timer-free guest so both engines follow the
	// same instruction trajectory.
	cfg := experiments.Config{
		Corpus:      guest.CorpusSpec{NFiles: 1, FileSize: 1024, Seed: 5, ChangeFraction: 0.4},
		TimerPeriod: 4_000_000_000,
	}
	build := func() (*hv.Domain, error) {
		m, err := experiments.Boot(cfg, core.DefaultConfig(), core.ModeNative)
		if err != nil {
			return nil, err
		}
		return m.Dom, nil
	}

	fmt.Println("comparing the out-of-order core against the functional reference...")
	probe := cosim.MakeArchProbe(build, core.DefaultConfig())
	n, diag, err := cosim.FirstDivergence(20000, probe)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if n < 0 {
		fmt.Println("no divergence in the first 20000 instructions: the cycle")
		fmt.Println("accurate core commits exactly the reference architectural state.")
	} else {
		fmt.Printf("first divergence at instruction %d: %s\n", n, diag)
		os.Exit(1)
	}

	// Show how the search zeroes in when a divergence DOES exist, using
	// a synthetic probe (a model bug that corrupts state at insn 1234).
	fmt.Println("\ndemonstrating the binary search against a synthetic bug at insn 1234:")
	probes := 0
	synthetic := func(n int64) (bool, string, error) {
		probes++
		fmt.Printf("  probe at %6d instructions -> ", n)
		if n < 1234 {
			fmt.Println("states match")
			return true, "", nil
		}
		fmt.Println("states DIVERGE")
		return false, "rbx: 0x2a vs 0x2b", nil
	}
	n, diag, _ = cosim.FirstDivergence(1_000_000, synthetic)
	fmt.Printf("isolated to instruction %d in %d probes (%s)\n", n, probes, diag)
}
