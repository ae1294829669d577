package snapshot

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/guest"
	"ptlsim/internal/kern"
	"ptlsim/internal/stats"
	"ptlsim/internal/vm"
)

func benchConfig() core.Config {
	return core.Config{Core: core.DefaultConfig().Core, NativeCPI: 1, ThreadsPerCore: 1}
}

// buildBench boots the deterministic timer-free rsync benchmark.
func buildBench(t *testing.T) *core.Machine {
	t.Helper()
	cs := guest.CorpusSpec{NFiles: 1, FileSize: 1024, Seed: 5, ChangeFraction: 0.4}
	spec, err := guest.RsyncBenchmark(cs, 4_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tree := stats.NewTree()
	spec.Tree = tree
	img, err := kern.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewMachine(img.Domain, tree, benchConfig())
}

func TestCaptureRestoreIdentity(t *testing.T) {
	m := buildBench(t)
	if err := m.RunUntilInsns(2000, 0); err != nil {
		t.Fatal(err)
	}
	data, err := Capture(m).Encode()
	if err != nil {
		t.Fatal(err)
	}
	img, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(img, m.Config())
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycle != m.Cycle {
		t.Fatalf("cycle: %d vs %d", r.Cycle, m.Cycle)
	}
	if r.Insns() != m.Insns() {
		t.Fatalf("insns: %d vs %d", r.Insns(), m.Insns())
	}
	if !vm.ArchEqual(r.Dom.VCPUs[0], m.Dom.VCPUs[0]) {
		t.Fatalf("arch state: %s", vm.DiffArch(m.Dom.VCPUs[0], r.Dom.VCPUs[0]))
	}
	if r.Dom.M.PM.NumPages() != m.Dom.M.PM.NumPages() {
		t.Fatalf("pages: %d vs %d", r.Dom.M.PM.NumPages(), m.Dom.M.PM.NumPages())
	}
	if r.Dom.Console() != m.Dom.Console() {
		t.Fatal("console output differs after restore")
	}
	if !reflect.DeepEqual(r.Tree.Snapshot(r.Cycle).Values, m.Tree.Snapshot(m.Cycle).Values) {
		t.Fatal("statistics tree differs after restore")
	}
}

// TestRoundTripDeterminism is the paper-level guarantee: a run that
// checkpoints every interval and a run resumed from one of those
// images in a fresh machine finish with bit-identical architectural
// state, cycle counts, console output and statistics.
func TestRoundTripDeterminism(t *testing.T) {
	const interval = 50_000

	// Uninterrupted (but checkpointing) run, simulated engine.
	m1 := buildBench(t)
	m1.SwitchMode(core.ModeSim)
	r1 := NewRunner(m1, interval)
	var saved [][]byte
	r1.OnCheckpoint = func(_ int, img *Image) error {
		data, err := img.Encode()
		saved = append(saved, data)
		return err
	}
	if err := r1.Run(0); err != nil {
		t.Fatal(err)
	}
	final1 := r1.M
	if !strings.Contains(final1.Dom.Console(), "rsync ok") {
		t.Fatalf("benchmark did not finish: %q", final1.Dom.Console())
	}
	if len(saved) < 2 {
		t.Fatalf("run crossed only %d checkpoints; shrink the interval", len(saved))
	}

	// Resume from a mid-run image, decoding from bytes as a fresh
	// process would, and run to completion.
	img, err := Decode(saved[len(saved)/2])
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(img, benchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cycle >= final1.Cycle {
		t.Fatalf("mid-run image is not mid-run: cycle %d vs final %d", m2.Cycle, final1.Cycle)
	}
	r2 := NewRunner(m2, interval)
	if err := r2.Run(0); err != nil {
		t.Fatal(err)
	}
	final2 := r2.M

	if final1.Cycle != final2.Cycle {
		t.Fatalf("cycle count diverged: uninterrupted %d, resumed %d", final1.Cycle, final2.Cycle)
	}
	if final1.Insns() != final2.Insns() {
		t.Fatalf("instruction count diverged: %d vs %d", final1.Insns(), final2.Insns())
	}
	for i := range final1.Dom.VCPUs {
		if !vm.ArchEqual(final1.Dom.VCPUs[i], final2.Dom.VCPUs[i]) {
			t.Fatalf("vcpu %d arch state diverged: %s", i,
				vm.DiffArch(final1.Dom.VCPUs[i], final2.Dom.VCPUs[i]))
		}
	}
	if final1.Dom.Console() != final2.Dom.Console() {
		t.Fatal("console output diverged")
	}
	s1 := final1.Tree.Snapshot(final1.Cycle).Values
	s2 := final2.Tree.Snapshot(final2.Cycle).Values
	if !reflect.DeepEqual(s1, s2) {
		for k, v := range s1 {
			if s2[k] != v {
				t.Errorf("counter %s: %d vs %d", k, v, s2[k])
			}
		}
		t.Fatal("statistics diverged")
	}
}

// TestEncodedRestoreEqualsDirect pins what lets a checkpoint boundary
// skip the gob round trip: restoring a captured image directly and
// restoring Decode(Encode(image)) build the same machine — at boot,
// mid-run on either engine, and after shutdown — and the two machines
// stay equal for 50k further cycles.
func TestEncodedRestoreEqualsDirect(t *testing.T) {
	points := []struct {
		name string
		run  func(m *core.Machine) error
	}{
		{"boot", func(*core.Machine) error { return nil }},
		{"native", func(m *core.Machine) error { return m.RunUntilInsns(20_000, 0) }},
		{"sim", func(m *core.Machine) error {
			m.SwitchMode(core.ModeSim)
			return m.RunUntilInsns(40_000, 0)
		}},
		{"shutdown", func(m *core.Machine) error { return m.Run(0) }},
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			m := buildBench(t)
			if err := p.run(m); err != nil {
				t.Fatal(err)
			}
			img := Capture(m)
			direct, err := Restore(img, m.Config())
			if err != nil {
				t.Fatal(err)
			}
			data, err := img.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			viaGob, err := Restore(decoded, m.Config())
			if err != nil {
				t.Fatal(err)
			}
			a, b := Capture(direct), Capture(viaGob)
			nilEmpty(reflect.ValueOf(a))
			nilEmpty(reflect.ValueOf(b))
			if av, bv := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(); !reflect.DeepEqual(a, b) {
				for i := 0; i < av.NumField(); i++ {
					if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
						t.Errorf("Image.%s differs between the direct and the gob restore", av.Type().Field(i).Name)
					}
				}
				t.FailNow()
			}

			for _, r := range []*core.Machine{direct, viaGob} {
				if err := r.RunUntilCycle(r.Cycle + 50_000); err != nil {
					t.Fatal(err)
				}
			}
			if direct.Cycle != viaGob.Cycle || direct.Insns() != viaGob.Insns() {
				t.Fatalf("after 50k cycles: direct cycle %d insns %d, gob cycle %d insns %d",
					direct.Cycle, direct.Insns(), viaGob.Cycle, viaGob.Insns())
			}
			if direct.Dom.Console() != viaGob.Dom.Console() {
				t.Fatalf("console: direct %q, gob %q", direct.Dom.Console(), viaGob.Dom.Console())
			}
			if !reflect.DeepEqual(direct.Tree.Snapshot(direct.Cycle).Values,
				viaGob.Tree.Snapshot(viaGob.Cycle).Values) {
				t.Fatal("statistics differ after 50k cycles")
			}
		})
	}
}

// nilEmpty sets every empty slice and map reachable from v to nil, so
// that DeepEqual treats nil and empty alike (gob does not tell them
// apart).
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			v.SetZero()
		} else if v.Kind() == reflect.Slice && v.Type().Elem().Kind() == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				nilEmpty(v.Index(i))
			}
		}
	}
}

func TestImageFileRoundTrip(t *testing.T) {
	m := buildBench(t)
	if err := m.RunUntilInsns(500, 0); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := Capture(m).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	img, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if img.Cycle != m.Cycle || len(img.VCPUs) != len(m.Dom.VCPUs) {
		t.Fatalf("image header: cycle=%d vcpus=%d", img.Cycle, len(img.VCPUs))
	}
	if _, err := Restore(&Image{}, benchConfig()); err == nil {
		t.Fatal("restoring an empty image must fail")
	}
}

func TestRunnerRejectsZeroInterval(t *testing.T) {
	m := buildBench(t)
	if err := (&Runner{M: m}).Run(0); err == nil {
		t.Fatal("zero interval must be rejected")
	}
}
