// Delta-minimization and localization of findings. Shrink is ddmin
// over the case's unit list: units are self-contained by construction,
// so any subset still assembles, and the minimizer just re-runs the
// harness asking "does the same failure kind still appear?". Divergence
// findings are then localized to the first diverging committed
// instruction with the checkpoint-accelerated cosimulation search.
package conformance

import (
	"ptlsim/internal/core"
	"ptlsim/internal/cosim"
	"ptlsim/internal/selfcheck"
)

// ShrinkStats reports what the minimizer did.
type ShrinkStats struct {
	From, To int // unit counts before/after
	Probes   int // harness re-runs spent
}

// Shrink reduces units to a 1-minimal (modulo probe budget) subset
// that still produces a finding of kind want under the case seed.
// Removing units can only shorten the program, so an injected fault
// that triggers at a fixed instruction count naturally pins the units
// it needs to stay reachable.
func (c Config) Shrink(units [][]byte, seed int64, want string, maxProbes int) ([][]byte, ShrinkStats, error) {
	st := ShrinkStats{From: len(units)}
	if maxProbes <= 0 {
		maxProbes = 200
	}
	reproduces := func(sub [][]byte) bool {
		f, err := c.RunCase(sub, seed)
		return err == nil && f != nil && f.Kind == want
	}
	cur := units
	n := 2
	for len(cur) >= 1 && n <= len(cur) && st.Probes < maxProbes {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur) && st.Probes < maxProbes; start += chunk {
			end := min(start+chunk, len(cur))
			sub := make([][]byte, 0, len(cur)-(end-start))
			sub = append(sub, cur[:start]...)
			sub = append(sub, cur[end:]...)
			st.Probes++
			if reproduces(sub) {
				cur = sub
				n = max(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min(n*2, len(cur))
		}
	}
	st.To = len(cur)
	return cur, st, nil
}

// Localize runs the checkpointed first-divergence search over the
// (typically already shrunk) case and returns the first diverging
// committed-instruction index with its diagnosis, or -1 when the
// search sees a clean run (e.g. the finding reproduces only under a
// sampling cadence the search does not use).
func (c Config) Localize(units [][]byte, seed int64, timingSeed int64) (int64, string, error) {
	cfg := c.withDefaults()
	code, err := BuildProgram(units, seed)
	if err != nil {
		return -1, "", err
	}
	// Bound the search by the reference engine's run length.
	nat, err := cfg.runEngine(code, core.ModeNative, 0)
	if err != nil {
		return -1, "", err
	}
	maxN := nat.Insns + 50
	interval := maxN/8 + 1
	simCfg := cfg.Sim
	// The search replays and compares engines itself; the oracle would
	// abort the scan runs before the bisection could attribute.
	simCfg.SelfCheck = selfcheck.Config{}
	simCfg.TimingSeed = timingSeed
	n, diag, _, err := cosim.FirstDivergenceCheckpointed(
		DomainBuilder(code), simCfg, maxN, interval, cfg.Instrument)
	if err != nil {
		return -1, "", err
	}
	return n, diag, nil
}
