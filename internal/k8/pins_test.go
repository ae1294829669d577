package k8_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/experiments"
	"ptlsim/internal/guest"
	"ptlsim/internal/k8"
	"ptlsim/internal/kern"
	"ptlsim/internal/ooo"
	"ptlsim/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/pins.json from this tree's reference model")

// refPin is what the reference model reports for one guest run on the
// functional engine: the counters Table 1 compares against the
// simulated core, the cycle estimate they feed, and the functional
// engine's own instruction and uop counts (the stream the model is
// driven by).
type refPin struct {
	Cycles      uint64 `json:"cycles"`
	Insns       int64  `json:"insns"`
	Uops        int64  `json:"uops"`
	Triads      int64  `json:"triads"`
	L1DMisses   int64  `json:"l1d_misses"`
	Mispredicts int64  `json:"mispredicts"`
	DTLBMisses  int64  `json:"dtlb_misses"`
	ITLBMisses  int64  `json:"itlb_misses"`
}

// runRef runs m to its end in native mode with the reference model
// attached, as the Table 1 native trial does: caches cold, halted
// cycles added to the cycle counter.
func runRef(t *testing.T, m *core.Machine, wantConsole string) refPin {
	t.Helper()
	model := k8.New(m.Tree, "k8ref")
	model.FlushCaches()
	m.SeqCores()[0].Obs = model
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Dom.Console(), wantConsole) {
		t.Fatalf("guest failed: console %q", m.Dom.Console())
	}
	model.AddIdleCycles(uint64(m.Tree.Lookup("external.cycles_in_mode.idle").Value()))
	return refPin{
		Cycles:      model.Cycles(),
		Insns:       model.Insns.Value(),
		Uops:        m.Tree.Lookup("seq0.uops").Value(),
		Triads:      model.Uops.Value(),
		L1DMisses:   model.L1DMisses.Value(),
		Mispredicts: model.Mispredicts.Value(),
		DTLBMisses:  model.DTLBMisses.Value(),
		ITLBMisses:  model.ITLBMisses.Value(),
	}
}

// TestReferencePins holds the reference model's counters on the small
// rsync guest and a small pointer chase to the values recorded in
// testdata/pins.json. The reference stands in for silicon, so a change
// to its cost model or structures moves Table 1 without moving any
// simulated-core pin; this is the test that notices. Re-record
// deliberately, in a commit of its own:
//
//	go test ./internal/k8/ -run TestReferencePins -update
func TestReferencePins(t *testing.T) {
	mcfg := core.Config{Core: ooo.K8Config(), NativeCPI: 1, ThreadsPerCore: 1}
	rsync, err := experiments.Boot(experiments.Scale("small"), mcfg, core.ModeNative)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := guest.Chase(256<<10, 1200, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.Tree = stats.NewTree()
	img, err := kern.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	chase := core.NewMachine(img.Domain, spec.Tree, mcfg)
	chase.SwitchMode(core.ModeNative)

	got := map[string]refPin{
		"rsync_small": runRef(t, rsync, "rsync ok"),
		"chase_small": runRef(t, chase, "chase ok"),
	}
	for name, p := range got {
		if p.L1DMisses == 0 || p.Mispredicts == 0 || p.DTLBMisses == 0 {
			t.Fatalf("%s: run too tame to pin anything: %+v", name, p)
		}
	}
	path := filepath.Join("testdata", "pins.json")
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record with go test ./internal/k8/ -run TestReferencePins -update)", err)
	}
	var want map[string]refPin
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s moved:\n got %+v\nwant %+v", name, g, w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d pins run, %d recorded", len(got), len(want))
	}
}
