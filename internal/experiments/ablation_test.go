package experiments

import (
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/guest"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

// How a counter must move from an ablation's first arm to its second.
const (
	falls   = iota // strictly lower
	rises          // strictly higher
	appears        // zero, then positive
)

type move struct {
	path string
	sign int
}

// TestAblations runs each design choice of the K8 core model the paper
// or DESIGN.md makes a claim about twice on one guest, with the
// mechanism as configured and then mutated, and requires the counters
// the claim is about to move in the claimed direction. An ablation
// whose two arms read the same is not evidence for anything, so each
// row fails when its mechanism is disabled. L1 banking is pinned by
// ooo.TestBankConflictsCounted, coherence by the cache package's MOESI
// tests.
func TestAblations(t *testing.T) {
	rows := []struct {
		name   string
		guest  func(*testing.T, core.Config) *core.Machine
		mutate func(*core.Config)
		moves  []move
		// sameOutside, when set, also requires equal cycles, console and
		// values of every stats path outside this prefix: the mechanism
		// is a host-side speed optimisation the guest cannot observe.
		sameOutside string
	}{
		{
			// 64 pages against 32 entries: capacity misses that 1024
			// entries remove. On rsync both sizes miss the same (its DTLB
			// misses follow the flush on every CR3 write).
			name:   "dtlb_32_to_1024_entries",
			guest:  smallChase,
			mutate: func(c *core.Config) { c.Core.DTLBEntries, c.Core.DTLBAssoc = 1024, 1024 },
			moves:  []move{{"core0.dtlb.misses", falls}},
		},
		{
			// The K8 replays a load until every older store address is
			// known; hoisting issues it early and flushes on a conflict.
			name:   "load_hoisting_off_to_on",
			guest:  smallRsync,
			mutate: func(c *core.Config) { c.Core.LoadHoisting = true },
			moves: []move{
				{"core0.load_spec_flushes", appears},
				{"core0.replays", falls},
				{"core0.cycles", falls},
			},
		},
		{
			// §2.1: the BB cache only saves decoding. Capacity 1 decodes
			// almost every block again.
			name:        "bbcache_default_to_capacity_1",
			guest:       smallRsync,
			mutate:      func(c *core.Config) { c.BBCacheCapacity = 1 },
			moves:       []move{{"bbcache.misses", rises}},
			sameOutside: "bbcache.",
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1}
			before := row.guest(t, cfg)
			row.mutate(&cfg)
			after := row.guest(t, cfg)
			a, b := before.Tree.Snapshot(before.Cycle), after.Tree.Snapshot(after.Cycle)
			for _, mv := range row.moves {
				x, y := a.Get(mv.path), b.Get(mv.path)
				t.Logf("%s: %d → %d", mv.path, x, y)
				ok := map[int]bool{falls: y < x, rises: y > x, appears: x == 0 && y > 0}[mv.sign]
				if !ok {
					t.Errorf("%s: want it to %s", mv.path, [...]string{"fall", "rise", "appear"}[mv.sign])
				}
			}
			if row.sameOutside == "" {
				return
			}
			if before.Cycle != after.Cycle || before.Dom.Console() != after.Dom.Console() {
				t.Errorf("simulated behaviour moved: %d → %d cycles, console %q → %q",
					before.Cycle, after.Cycle, before.Dom.Console(), after.Dom.Console())
			}
			for path, x := range a.Values {
				if y := b.Get(path); !strings.HasPrefix(path, row.sameOutside) && x != y {
					t.Errorf("%s: %d → %d", path, x, y)
				}
			}
		})
	}
}

// smallRsync runs the small-scale rsync guest to its end.
func smallRsync(t *testing.T, mcfg core.Config) *core.Machine {
	t.Helper()
	m, console, _, err := RunSimWith(Scale("small"), mcfg)
	if err != nil || !strings.Contains(console, "rsync ok") {
		t.Fatalf("%v %q", err, console)
	}
	return m
}

// smallChase runs 1,200 dependent loads over a 256 KiB region (64
// pages) and one store sweep to its end.
func smallChase(t *testing.T, mcfg core.Config) *core.Machine {
	t.Helper()
	spec, err := guest.Chase(256<<10, 1200, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.Tree = stats.NewTree()
	img, err := kern.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(img.Domain, spec.Tree, mcfg)
	m.SwitchMode(core.ModeSim)
	if err := m.Run(100_000_000); err != nil || !strings.Contains(m.Dom.Console(), "chase ok") {
		t.Fatalf("%v %q", err, m.Dom.Console())
	}
	return m
}
