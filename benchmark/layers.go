package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ptlsim/internal/bbcache"
	"ptlsim/internal/bpred"
	"ptlsim/internal/cache"
	"ptlsim/internal/core"
	"ptlsim/internal/decode"
	"ptlsim/internal/kern"
	"ptlsim/internal/mem"
	"ptlsim/internal/snapshot"
	"ptlsim/internal/stats"
	"ptlsim/internal/supervisor"
	"ptlsim/internal/tlb"
	"ptlsim/internal/uops"
)

// The micro-drives time one public function of one layer in a tight
// loop on inputs the harness builds itself. They say what a call costs
// in isolation; what a layer costs inside a run is the trace's job.
// Results are the fastest of driveBatches batches: on a shared host the
// minimum is the least disturbed sample of a fixed piece of work.

const driveBatches = 5

// sink keeps the compiler from discarding a timed call's result.
var sink uint64

// nsPerOp runs driveBatches batches of n calls to f(i) and returns the
// fastest batch's nanoseconds per call.
func nsPerOp(n int, f func(i int)) float64 {
	best := math.Inf(1)
	for b := 0; b < driveBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		if d := float64(time.Since(t0).Nanoseconds()) / float64(n); d < best {
			best = d
		}
	}
	return best
}

// microDrives fills in the per-call metrics, using the finished
// machine's guest image wherever a drive needs real guest memory.
func microDrives(rep *report, b *booted) error {
	decodeDrive(rep, b.spec)
	bbcacheDrive(rep)

	dtlb := tlb.New(machineConfig().Core.DTLBEntries, machineConfig().Core.DTLBAssoc)
	for vpn := uint64(0); vpn < uint64(dtlb.Size()); vpn++ {
		dtlb.Insert(tlb.Entry{VPN: vpn, MFN: vpn + 1})
	}
	size := dtlb.Size()
	rep.set("tlb.lookup_hit_ns", nsPerOp(1<<18, func(i int) {
		e, _ := dtlb.Lookup(uint64(i % size))
		sink += e.MFN
	}))

	// Guest memory drives: the kernel's own data pages, through the
	// boot address space kern.Build returned.
	pm, cr3 := b.img.Domain.M.PM, b.img.BootCR3
	page := func(i int) uint64 {
		return kern.KernelDataVA + uint64(i%kern.KernelDataPages)*mem.PageSize
	}
	if w := mem.Walk(pm, cr3, page(0), mem.Access{}); w.Fault != uops.FaultNone {
		return fmt.Errorf("micro-drive: walking kernel data: %v", w.Fault)
	}
	rep.set("mem.walk_ns", nsPerOp(1<<16, func(i int) {
		w := mem.Walk(pm, cr3, page(i), mem.Access{})
		sink += w.MFN
	}))
	w := mem.Walk(pm, cr3, page(0), mem.Access{})
	pa := w.PhysAddr(page(0))
	rep.set("mem.read_ns", nsPerOp(1<<18, func(i int) {
		v, _ := pm.Read(pa+uint64(i%512)*8, 8)
		sink += v
	}))
	kctx := b.img.KernCtx
	rep.set("vm.read_virt_ns", nsPerOp(1<<16, func(i int) {
		v, _ := kctx.ReadVirt(kern.KernelDataVA+uint64(i%512)*8, 8)
		sink += v
	}))

	cacheDrive(rep)

	pred := bpred.New(bpred.K8Config())
	rep.set("bpred.predict_update_ns", nsPerOp(1<<18, func(i int) {
		pc := kern.UserTextVA + uint64(i*24)%4096
		taken := (uint32(i)*2654435761)>>9&3 != 0
		guess, snap := pred.PredictDirection(pc)
		pred.Update(pc, taken, snap)
		if guess != taken {
			pred.Recover(snap, taken)
		}
	}))

	add := &uops.Uop{Op: uops.OpAdd, Size: 8, SetFlags: uops.SetAll}
	rep.set("uops.exec_ns", nsPerOp(1<<20, func(i int) {
		res, flags, _ := uops.Exec(add, uint64(i), sink, 0)
		sink = res ^ flags
	}))
	return nil
}

// decodeDrive decodes and translates every basic block of the guest's
// user programs by a linear sweep of their text, the cold-path cost a
// BB-cache miss pays.
func decodeDrive(rep *report, spec kern.BuildSpec) {
	sweep := func() (insns, blocks int) {
		for _, p := range spec.Procs {
			code := p.Code
			end := kern.UserTextVA + uint64(len(code))
			fetch := func(va uint64, buf []byte) (int, uops.Fault) {
				if va < kern.UserTextVA || va >= end {
					return 0, uops.FaultPageExec
				}
				return copy(buf, code[va-kern.UserTextVA:]), uops.FaultNone
			}
			for rip := uint64(kern.UserTextVA); rip < end; {
				bb, fault := decode.BuildBB(fetch, rip)
				if fault != uops.FaultNone || bb == nil || bb.X86Len == 0 {
					rip++
					continue
				}
				insns += bb.NumX86
				blocks++
				rip = bb.FallThrough()
			}
		}
		return insns, blocks
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	insns, blocks := sweep()
	runtime.ReadMemStats(&after)
	if insns == 0 {
		return
	}
	rep.set("decode.allocs_per_bb", float64(after.Mallocs-before.Mallocs)/float64(blocks))
	rep.set("decode.build_bb_ns_per_insn", nsPerOp(1, func(int) { sweep() })/float64(insns))
}

// bbcacheDrive times the basic block cache's three operations on a
// cache filled to half its capacity, 256 blocks per code page.
func bbcacheDrive(rep *report) {
	const (
		blocks  = 8192
		perPage = 256
	)
	key := func(i int) bbcache.Key {
		return bbcache.Key{RIP: kern.UserTextVA + uint64(i)*16, MFN: 0x1000 + uint64(i/perPage)}
	}
	bb := &decode.BasicBlock{}
	fill := func() *bbcache.Cache {
		c := bbcache.New(2*blocks, stats.NewTree(), "drive")
		for i := 0; i < blocks; i++ {
			c.Insert(key(i), bb)
		}
		return c
	}
	insert, invalidate := math.Inf(1), math.Inf(1)
	var c *bbcache.Cache
	for b := 0; b < driveBatches; b++ {
		t0 := time.Now()
		c = fill()
		insert = math.Min(insert, float64(time.Since(t0).Nanoseconds())/blocks)
	}
	rep.set("bbcache.insert_ns", insert)
	rep.set("bbcache.lookup_hit_ns", nsPerOp(1<<18, func(i int) {
		got, _ := c.Lookup(key(i % blocks))
		sink += got.RIP
	}))
	for b := 0; b < driveBatches; b++ {
		c = fill()
		t0 := time.Now()
		for p := 0; p < blocks/perPage; p++ {
			sink += uint64(c.InvalidatePage(0x1000 + uint64(p)))
		}
		invalidate = math.Min(invalidate, float64(time.Since(t0).Nanoseconds())/(blocks/perPage))
	}
	rep.set("bbcache.invalidate_page_ns", invalidate)
}

// cacheDrive times the K8 hierarchy on a resident address stream (L1
// hits), and on a line-stride stream over 16x the L2 for loads (miss,
// MSHR allocation, fills, clean evictions) and for stores
// (write-allocate and dirty writebacks). Simulated time advances far
// enough between accesses for each miss to retire its MSHR.
func cacheDrive(rep *report) {
	cfg := cache.K8Hierarchy()
	line := uint64(cfg.L1D.LineSize)
	thrash := 16 * uint64(cfg.L2.Size) / line // lines in the thrashing stream
	const resident = 128                      // lines in the resident stream

	h := cache.NewHierarchy(cfg, stats.NewTree(), "drive")
	now := uint64(0)
	for i := uint64(0); i < resident; i++ {
		now = h.Load(i*line, now).Ready + 1
	}
	rep.set("cache.load_hit_ns", nsPerOp(1<<18, func(i int) {
		now = h.Load(uint64(i%resident)*line, now+1).Ready
	}))

	h = cache.NewHierarchy(cfg, stats.NewTree(), "drive")
	now = 0
	rep.set("cache.load_miss_ns", nsPerOp(1<<16, func(i int) {
		now = h.Load(uint64(i)%thrash*line, now+1).Ready
	}))

	h = cache.NewHierarchy(cfg, stats.NewTree(), "drive")
	now = 0
	rep.set("cache.store_ns", nsPerOp(1<<16, func(i int) {
		now = h.Store(uint64(i)%thrash*line, now+1).Ready
	}))
	sink += now
}

// snapshotLayer times the checkpoint path on the finished machine:
// capture, gob encode, decode, restore, and a supervisor.Store.Save
// (atomic write and fsync included) — what every served job pays at
// each checkpoint boundary. Each figure is the median of three.
func snapshotLayer(rep *report, tr *tracer, o options, m *core.Machine) error {
	dir := filepath.Join(o.outDir, fmt.Sprintf("ckpt-%s-%d", rep.workload, os.Getpid()))
	defer os.RemoveAll(dir)
	store, err := supervisor.OpenStore(dir, 1)
	if err != nil {
		return err
	}
	var capture, encode, restore, save []float64
	var imageBytes int
	for i := 0; i < 3; i++ {
		trace := fmt.Sprintf("snapshot-%d", i)
		root := tr.begin(trace, "checkpoint", 0)
		timed := func(name string, f func() error) (float64, error) {
			s := tr.begin(trace, name, root)
			t0 := time.Now()
			err := f()
			ms := msSince(t0)
			tr.end(s, nil)
			return ms, err
		}
		var img, decoded *snapshot.Image
		var data []byte
		ms, _ := timed("snapshot.Capture", func() error { img = snapshot.Capture(m); return nil })
		capture = append(capture, ms)
		if ms, err = timed("snapshot.Image.Encode", func() (err error) { data, err = img.Encode(); return }); err != nil {
			return err
		}
		encode = append(encode, ms)
		imageBytes = len(data)
		if _, err = timed("snapshot.Decode", func() (err error) { decoded, err = snapshot.Decode(data); return }); err != nil {
			return err
		}
		if ms, err = timed("snapshot.Restore", func() error { _, err := snapshot.Restore(decoded, m.Config()); return err }); err != nil {
			return err
		}
		restore = append(restore, ms)
		if ms, err = timed("supervisor.Store.Save", func() error { _, err := store.Save(img); return err }); err != nil {
			return err
		}
		save = append(save, ms)
		tr.end(root, map[string]float64{"image_bytes": float64(imageBytes)})
	}
	mib := float64(imageBytes) / (1 << 20)
	rep.set("snapshot.capture_ms", estMedian(capture))
	rep.set("snapshot.encode_mb_per_s", mib/(estMedian(encode)/1000))
	rep.set("snapshot.restore_ms", estMedian(restore))
	rep.set("snapshot.image_mb", mib)
	rep.set("supervisor.store_save_ms", estMedian(save))
	return nil
}
