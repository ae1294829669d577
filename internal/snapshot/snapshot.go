// Package snapshot implements full-machine checkpoint and restore: a
// serializable Image of everything that determines a domain's future —
// physical memory pages, VCPU architectural contexts, hypervisor state
// (timers, pending events, in-flight DMA, disk, console), the cycle
// counter, pending ptlcall phases, and the statistics tree.
//
// Determinism is by construction rather than by exhaustive
// microarchitectural serialization: cache, TLB, branch predictor and
// basic-block-cache contents are simulator speed/timing state that the
// restore path deliberately rebuilds cold. The checkpoint Runner makes
// this sound by running the machine in interval segments and swapping
// in a freshly restored machine at every boundary, so an uninterrupted
// checkpointed run and a run resumed from any of its images pass
// through identical restore operations and finish with bit-identical
// architectural state and cycle counts.
package snapshot

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"ptlsim/internal/core"
	"ptlsim/internal/hv"
	"ptlsim/internal/mem"
	"ptlsim/internal/stats"
	"ptlsim/internal/uops"
	"ptlsim/internal/vm"
)

// VCPUImage is the serialized architectural state of one VCPU.
type VCPUImage struct {
	Regs         [uops.NumArchRegs]uint64
	RIP          uint64
	Kernel       bool
	CR3          uint64
	CR2          uint64
	TrapEntry    uint64
	SyscallEntry uint64
	KernelRSP    uint64
	Running      bool
	TSCOffset    uint64
	FlushGen     uint64
}

// PageImage is one machine page with its frame number.
type PageImage struct {
	MFN  uint64
	Data []byte
}

// Image is a complete machine checkpoint.
type Image struct {
	Cycle   uint64
	SimMode bool

	// CfgHash is the compatibility hash (ConfigHash) of the machine
	// configuration the image was captured under; Restore refuses an
	// image whose hash disagrees with the offered config. Zero means
	// unknown (hand-built images) and skips the check.
	CfgHash uint64

	// Machine control state: queued ptlcall phases and the current
	// instruction-bounded phase progress.
	Phases    []core.PhaseSpec
	StopInsns int64
	BaseInsns int64

	Domain hv.DomainState
	VCPUs  []VCPUImage

	Pages       []PageImage
	AllocCursor uint64

	// Stats holds every counter in the tree; restoring them preserves
	// committed-instruction totals (Machine.Insns reads counters) and
	// all reported statistics across the checkpoint boundary.
	Stats map[string]int64
}

// Capture snapshots machine m into a self-contained Image. The machine
// must be at an instruction boundary (between Step calls); the run
// loops guarantee this.
func Capture(m *core.Machine) *Image {
	img := &Image{
		Cycle:       m.Cycle,
		SimMode:     m.Mode() == core.ModeSim,
		CfgHash:     ConfigHash(m.Config()),
		Domain:      m.Dom.SaveState(),
		AllocCursor: m.Dom.M.PM.AllocCursor(),
		Stats:       m.Tree.Snapshot(m.Cycle).Values,
	}
	img.Phases, img.StopInsns, img.BaseInsns = m.ControlState()
	for _, ctx := range m.Dom.VCPUs {
		img.VCPUs = append(img.VCPUs, VCPUImage{
			Regs: ctx.Regs, RIP: ctx.RIP, Kernel: ctx.Kernel,
			CR3: ctx.CR3, CR2: ctx.CR2,
			TrapEntry: ctx.TrapEntry, SyscallEntry: ctx.SyscallEntry,
			KernelRSP: ctx.KernelRSP, Running: ctx.Running,
			TSCOffset: ctx.TSCOffset, FlushGen: ctx.FlushGen,
		})
	}
	m.Dom.M.PM.ForEachPage(func(mfn uint64, page *mem.Page) {
		img.Pages = append(img.Pages, PageImage{MFN: mfn, Data: append([]byte(nil), page[:]...)})
	})
	return img
}

// Restore builds a fresh machine from a checkpoint image using the
// given configuration (which must match the capturing machine's).
// External attachments — trace Sink/Source, step hooks — are not part
// of the image; the caller reattaches them.
func Restore(img *Image, cfg core.Config) (*core.Machine, error) {
	if len(img.VCPUs) == 0 {
		return nil, fmt.Errorf("snapshot: image has no VCPUs")
	}
	if h := ConfigHash(cfg); img.CfgHash != 0 && img.CfgHash != h {
		return nil, fmt.Errorf(
			"snapshot: image captured under config hash %#x but restore offered %#x "+
				"(core geometry, cache shapes or thread mapping differ): %w",
			img.CfgHash, h, ErrConfigMismatch)
	}
	pm := mem.NewPhysMem()
	for _, p := range img.Pages {
		pm.InstallPage(p.MFN, p.Data)
	}
	pm.SetAllocCursor(img.AllocCursor)

	tree := stats.NewTree()
	dom := hv.NewDomain(&vm.Machine{PM: pm}, len(img.VCPUs), tree)
	dom.LoadState(img.Domain)
	for i, vi := range img.VCPUs {
		ctx := dom.VCPUs[i]
		ctx.Regs = vi.Regs
		ctx.RIP = vi.RIP
		ctx.Kernel = vi.Kernel
		ctx.CR3 = vi.CR3
		ctx.CR2 = vi.CR2
		ctx.TrapEntry = vi.TrapEntry
		ctx.SyscallEntry = vi.SyscallEntry
		ctx.KernelRSP = vi.KernelRSP
		ctx.Running = vi.Running
		ctx.TSCOffset = vi.TSCOffset
		ctx.FlushGen = vi.FlushGen
	}

	m := core.NewMachine(dom, tree, cfg)
	m.Cycle = img.Cycle
	if img.SimMode {
		m.RestoreMode(core.ModeSim)
	} else {
		m.RestoreMode(core.ModeNative)
	}
	m.SetControlState(img.Phases, img.StopInsns, img.BaseInsns)
	// Restore counters last: constructors have registered their handles
	// by now, and Counter returns the existing handle for a known path,
	// so Set reaches every live counter (including instruction totals).
	for path, v := range img.Stats {
		tree.Counter(path).Set(v)
	}
	return m, nil
}

// Swap restores img under old's configuration and carries over the
// external attachments an image deliberately excludes — the trace sink
// and source, the step hook and the event log — returning the machine
// that replaces old. Every checkpoint boundary and every recovery swaps
// machines through here, so an attachment added to core.Machine is
// carried in this one place.
func Swap(old *core.Machine, img *Image) (*core.Machine, error) {
	fresh, err := Restore(img, old.Config())
	if err != nil {
		return nil, err
	}
	fresh.Dom.Sink = old.Dom.Sink
	fresh.Dom.Source = old.Dom.Source
	fresh.SetStepHook(old.StepHook())
	fresh.SetEventLog(old.EventLog())
	return fresh, nil
}

// Encode serializes the image to bytes (gob).
func (img *Image) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(img); err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes an image produced by Encode.
func Decode(data []byte) (*Image, error) {
	// gob sizes a nil map by the entry count the payload claims, before
	// reading any entry: a damaged count would allocate without bound.
	// Into an existing map it inserts only the entries actually read.
	img := Image{Stats: map[string]int64{}}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&img); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	return &img, nil
}

// Runner drives a machine to completion while checkpointing every
// Interval cycles. At each boundary it captures an Image, restores a
// fresh machine from it, and swaps that machine in — so the continued
// run is, by construction, exactly the run a later restore-from-image
// would produce (restoring an image and its Encode/Decode round trip
// build the same machine; bytes exist only where a caller writes them).
type Runner struct {
	M        *core.Machine
	Interval uint64

	// OnCheckpoint, when set, receives each checkpoint as it is taken
	// (k counts from 1) — e.g. to persist it to disk.
	OnCheckpoint func(k int, img *Image) error

	// Checkpoints is the number of boundaries crossed so far.
	Checkpoints int
}

// NewRunner checkpoints m every interval cycles (interval must be > 0).
func NewRunner(m *core.Machine, interval uint64) *Runner {
	return &Runner{M: m, Interval: interval}
}

// Run executes until domain shutdown or until the absolute cycle count
// reaches maxCycles (0 = unlimited), checkpointing at every Interval
// boundary. On return r.M is the machine instance that finished the
// run (earlier instances have been swapped out).
func (r *Runner) Run(maxCycles uint64) error {
	return r.RunCtx(context.Background(), maxCycles)
}

// RunCtx is Run with cooperative cancellation: when ctx is cancelled
// the segment in flight stops at the next instruction boundary and the
// wrapped ctx.Err() is returned — r.M is then still checkpointable, so
// the caller can capture a final image before exiting.
func (r *Runner) RunCtx(ctx context.Context, maxCycles uint64) error {
	if r.Interval == 0 {
		return fmt.Errorf("snapshot: Runner.Interval must be > 0")
	}
	for !r.M.Dom.ShutdownReq {
		if maxCycles > 0 && r.M.Cycle >= maxCycles {
			return r.M.BudgetErr(fmt.Sprintf("cycle budget %d exhausted", maxCycles))
		}
		target := r.M.Cycle + r.Interval
		if maxCycles > 0 && target > maxCycles {
			target = maxCycles
		}
		if err := r.M.RunUntilCycleCtx(ctx, target); err != nil {
			return err
		}
		if r.M.Dom.ShutdownReq {
			break
		}
		if err := r.checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// checkpoint performs one capture → restore → swap round trip,
// carrying over the external attachments the image deliberately
// excludes.
func (r *Runner) checkpoint() error {
	img := Capture(r.M)
	fresh, err := Swap(r.M, img)
	if err != nil {
		return err
	}
	r.M = fresh
	r.Checkpoints++
	if r.OnCheckpoint != nil {
		return r.OnCheckpoint(r.Checkpoints, img)
	}
	return nil
}
