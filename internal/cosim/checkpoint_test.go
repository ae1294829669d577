package cosim

import (
	"strings"
	"testing"

	"ptlsim/internal/core"
	"ptlsim/internal/faultinject"
	"ptlsim/internal/hv"
	"ptlsim/internal/kern"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// TestCheckpointedDivergenceFindsInjectedFault injects a sticky
// register bit flip at a known committed-instruction count and asserts
// the checkpoint-accelerated search isolates exactly that instruction
// while replaying far fewer instructions than restart-from-zero
// bisection would.
func TestCheckpointedDivergenceFindsInjectedFault(t *testing.T) {
	const fault = 2500
	const interval = 1000
	spec, err := faultinject.ParseSpec("regflip@2500:reg=r13,bit=62")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(spec)
	n, diag, st, err := FirstDivergenceCheckpointed(
		timerlessBench(t), core.DefaultConfig(), 4000, interval, inj.Attach)
	if err != nil {
		t.Fatal(err)
	}
	if n != fault {
		t.Fatalf("first divergence at %d, want %d (diag: %s)", n, fault, diag)
	}
	if diag == "" || !strings.Contains(diag, "r13") {
		t.Fatalf("diagnosis should name the corrupted register: %q", diag)
	}

	// Replayed-cycle accounting: the scan stopped at the first bad
	// boundary and bisection resumed from the preceding checkpoint.
	if st.Probes == 0 {
		t.Fatal("bisection issued no probes")
	}
	if st.ScanInsns != 3000 {
		t.Fatalf("scan replayed %d insns, want 3000 (stop at first bad boundary)", st.ScanInsns)
	}
	// Each probe replays at most 2*interval insns from the checkpoint.
	if st.ProbeInsns > int64(st.Probes)*2*interval {
		t.Fatalf("probe replay %d exceeds checkpoint window bound", st.ProbeInsns)
	}
	if st.ScanInsns+st.ProbeInsns >= st.NaiveInsns {
		t.Fatalf("checkpoints bought nothing: replayed %d (scan %d + probes %d) vs naive %d",
			st.ScanInsns+st.ProbeInsns, st.ScanInsns, st.ProbeInsns, st.NaiveInsns)
	}
}

// TestCheckpointedDivergenceAtOrigin: instrumentation that corrupts
// architectural state at attach time diverges before the first
// simulated instruction executes. The search must report the
// divergence at the search origin (instruction 0 for a fresh build)
// instead of blaming instruction 1 — the scan has to compare at the
// first boundary, not only after running the first window.
func TestCheckpointedDivergenceAtOrigin(t *testing.T) {
	corrupt := func(m *core.Machine) {
		m.Dom.VCPUs[0].Regs[uops.RegR12] ^= 1 << 40
	}
	n, diag, st, err := FirstDivergenceCheckpointed(
		timerlessBench(t), core.DefaultConfig(), 3000, 1000, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("attach-time corruption attributed to instruction %d, want 0 (diag: %s)", n, diag)
	}
	if !strings.Contains(diag, "r12") {
		t.Fatalf("diagnosis should name the corrupted register: %q", diag)
	}
	if st.Probes != 0 {
		t.Fatalf("origin divergence needs no bisection, issued %d probes", st.Probes)
	}
}

// scrubbedConsoleGuest builds a guest whose only observable output is
// what it prints: it stores a marker value to its data page up front,
// spins a register-mixing filler loop, prints the stored qword, then
// zeroes every touched register before exit. Corrupting the data page
// mid-loop changes the console bytes but leaves the final
// architectural state bit-identical — divergence a register compare
// alone cannot see.
func scrubbedConsoleGuest(t *testing.T, marker int64) DomainBuilder {
	t.Helper()
	a := x86.NewAssembler(kern.UserTextVA)
	a.Mov(x86.R(x86.RBX), x86.I(marker))
	a.Mov(x86.MAbs(int32(kern.UserDataVA)), x86.R(x86.RBX))
	a.Mov(x86.R(x86.RCX), x86.I(120))
	loop := a.Mark()
	a.Imul3(x86.RBX, x86.R(x86.RBX), 3)
	a.Add(x86.R(x86.RBX), x86.I(1))
	a.Dec(x86.R(x86.RCX))
	a.Jcc(x86.CondNE, loop)
	a.Mov(x86.R(x86.RDI), x86.I(int64(kern.UserDataVA)))
	a.Mov(x86.R(x86.RSI), x86.I(8))
	a.Mov(x86.R(x86.RAX), x86.I(kern.SysConsWrite))
	a.Syscall()
	a.Xor(x86.R(x86.RBX), x86.R(x86.RBX))
	a.Xor(x86.R(x86.RCX), x86.R(x86.RCX))
	a.Xor(x86.R(x86.RDI), x86.R(x86.RDI))
	a.Xor(x86.R(x86.RSI), x86.R(x86.RSI))
	a.Xor(x86.R(x86.RAX), x86.R(x86.RAX)) // SysExit
	a.Syscall()
	code, err := a.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return func() (*hv.Domain, error) {
		img, err := kern.Build(kern.BuildSpec{
			Procs: []kern.ProcSpec{{Name: "scrub", Code: code, DataPages: 1}},
			Tree:  stats.NewTree(),
		})
		if err != nil {
			return nil, err
		}
		return img.Domain, nil
	}
}

// TestCheckpointedDivergenceFinalPartialWindow: a fault landing in the
// final partial window, close enough to the guest's natural shutdown
// that both engines coast into post-shutdown state before the window
// boundary — and with the guest scrubbing its registers on exit, the
// final contexts compare architecturally equal. The search must also
// compare where the engines stopped and what they printed; without
// that, the scan reports a clean run.
func TestCheckpointedDivergenceFinalPartialWindow(t *testing.T) {
	build := scrubbedConsoleGuest(t, 0x5AA5C33C)

	// Measure the guest's natural length G, then search to G+100 with
	// a single full-run window so the divergence, the shutdown, and
	// the search bound all share the final (and only) partial window.
	dom, err := build()
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMachine(dom, stats.NewTree(), core.DefaultConfig())
	m.SwitchMode(core.ModeNative)
	// The guest shuts down after about 830 cycles; the budget turns an
	// engine that never gets there into a failure, not a hang.
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	g := m.Insns()
	if g < 500 {
		t.Fatalf("guest too short for this test: %d insns", g)
	}

	// Corrupt the stored marker qword mid-loop (while the guest is in
	// user mode, well after the store and well before the print): the
	// filler loop is 4 instructions x 120 iterations ending ~15
	// instructions before the print, so G-300 is inside it. Registers
	// are untouched, so the divergence is observable only through the
	// console bytes the guest prints afterwards.
	trigger := g - 300
	instrument := func(m *core.Machine) {
		fired := false
		m.SetStepHook(func(m *core.Machine) {
			if fired || m.Insns() < trigger {
				return
			}
			fired = true
			ctx := m.Dom.VCPUs[0]
			var b [1]byte
			if f := ctx.ReadVirtBytes(kern.UserDataVA, b[:]); f != uops.FaultNone {
				t.Errorf("instrument read fault: %v", f)
				return
			}
			b[0] ^= 1
			if f := ctx.WriteVirtBytes(kern.UserDataVA, b[:]); f != uops.FaultNone {
				t.Errorf("instrument write fault: %v", f)
			}
		})
	}
	n, diag, _, err := FirstDivergenceCheckpointed(
		build, core.DefaultConfig(), g+100, g, instrument)
	if err != nil {
		t.Fatal(err)
	}
	if n == -1 {
		t.Fatalf("divergence at insn %d inside the final partial window was missed", trigger)
	}
	if n < trigger || n > g {
		t.Fatalf("first divergence at %d, want within [%d, %d] (diag: %s)", n, trigger, g, diag)
	}
	if diag == "" {
		t.Fatal("empty diagnosis")
	}
	if !strings.Contains(diag, "console") {
		t.Fatalf("diagnosis should blame the console output: %q", diag)
	}
}

// TestCheckpointedDivergenceCleanRun: with no fault injected, the
// checkpointed search must agree with the plain search that the
// engines never diverge.
func TestCheckpointedDivergenceCleanRun(t *testing.T) {
	n, diag, st, err := FirstDivergenceCheckpointed(
		timerlessBench(t), core.DefaultConfig(), 3000, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != -1 {
		t.Fatalf("clean run reported divergence at %d: %s", n, diag)
	}
	if st.Probes != 0 {
		t.Fatalf("clean run should not bisect, issued %d probes", st.Probes)
	}
	if st.ScanInsns != 3000 {
		t.Fatalf("scan covered %d insns, want 3000", st.ScanInsns)
	}
}
