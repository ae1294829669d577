package vm

import (
	"bytes"
	"sync"
	"testing"

	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
)

// FuzzTranslateCoherent is the differential check of the host-side
// translation cache: a byte stream decoded into operations over two
// address spaces that share a top-level slot, applied to two identical
// memories. One is accessed through two Contexts (two VCPUs, each with
// its cache); its twin only ever through bare mem.Walk and
// PhysMem.Read/Write — the functional memory path as it was before the
// cache existed. After every operation the physical address, fault,
// CR2 and value agree, and at the end the two memories are
// byte-identical, which is what pins the A/D argument: a hit must
// leave every PTE exactly as the walk it replaces would.
func FuzzTranslateCoherent(f *testing.F) {
	// One seed per reason a cached translation goes stale, each after
	// warming the entries (everything twice): a raw PTE write that
	// remaps, drops a permission or clears A/D; a CR3 switch; a
	// privilege switch; InstallPage over the data frame and over a page
	// table; the guest storing into a page table it has mapped; the
	// other VCPU doing so.
	op := func(code, a, b byte, off uint16, sel byte) []byte {
		return []byte{code, a, b, byte(off >> 8), byte(off), sel}
	}
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	touch := cat(op(fzRead, 0, 3, 0, 0), op(fzWrite, 0, 3, 8, 1), op(fzXlate, 0, 2, 0, 0), op(fzRead, 1, 3, 0xffc, 0))
	seed := func(ops ...[]byte) { f.Add(cat(touch, touch, cat(ops...), touch)) }
	seed(op(fzRemap, 0, 0, 0, 4))
	for flag := byte(0); flag < 6; flag++ { // not present, read-only, supervisor, A, D, NX
		seed(op(fzFlag, 0, 0, 0, flag))
	}
	seed(op(fzUpper, 0, 0, 0, 0))
	seed(op(fzCR3, 0, 1, 0, 0))
	seed(op(fzMode, 0, 1, 0, 0))
	seed(op(fzMode, 0, 1, 0, 0), op(fzRead, 6, 3, 0, 0), op(fzRead, 6, 3, 0, 0), op(fzMode, 0, 0, 0, 0), op(fzRead, 6, 3, 0, 0), op(fzXlate, 6, 2, 0, 0))
	seed(op(fzInstallData, 0, 0, 0, 0))
	seed(op(fzInstallPT, 0, 3, 0, 0))
	seed(op(fzInstallPT, 0, 0, 0, 0), op(fzInstallPT, 0, 1, 0, 0), op(fzInstallPT, 0, 2, 0, 0))
	// Space 0's leaf table aliased at va 2 and stored into by VCPU 0;
	// the shared leaf table aliased at va 8 and stored into by VCPU 1
	// (in kernel mode, on the other space) while VCPU 0 holds entries.
	seed(op(fzRemap, 2, 0, 0, 6), op(fzWrite, 0x42, 3, 0, 0x0f), op(fzRead, 0, 3, 0, 0), op(fzWrite, 0x42, 3, 0, 0x3c))
	seed(op(fzMode, 0, 1, 0, 0), op(fzMode, 0x80, 1, 0, 0), op(fzCR3, 0x80, 1, 0, 0), op(fzRead, 6, 3, 0, 0), op(fzRead, 6, 3, 0, 0),
		op(fzRemap, 8, 0, 0, 7), op(fzWrite, 0xc8, 3, 0, 0x0c), op(fzRead, 6, 3, 0, 0))
	seed(op(fzRead, 4, 3, 0xffd, 0), op(fzRemap, 5, 0, 0, 2), op(fzRead, 4, 3, 0xffd, 0), op(fzFlag, 5, 0, 0, 0), op(fzWrite, 4, 3, 0xffd, 0))
	seed(op(fzFetch, 0, 0, 0xff0, 0), op(fzFlag, 1, 0, 0, 5), op(fzFetch, 0, 0, 0xff0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		cached, bare := newFuzzTwin(t), newFuzzTwin(t)
		m := &Machine{PM: cached.pm}
		cpus := [2]*Context{NewContext(m, 0), NewContext(m, 1)}
		refs := [2]*refCPU{{pm: bare.pm}, {pm: bare.pm}}
		for i := range cpus {
			cpus[i].CR3, refs[i].cr3 = cached.cr3[i], bare.cr3[i]
		}
		for step := 0; len(data) >= fzOpLen; step, data = step+1, data[fzOpLen:] {
			// op | VCPU (bit 7), PTE-like store value (bit 6), va index |
			// size or class (bits 0-1), space (bit 2) | offset | selector
			op, a, b, c := data[0]%fzOps, data[1], data[2], data[5]
			cpu, ref := cpus[a>>7], refs[a>>7]
			vi := int(a&0x3f) % fzVAs
			va := fzVA(vi) + (uint64(data[3])<<8|uint64(data[4]))&mem.PageMask
			size := uint8(1) << (b & 3)
			space := int(b>>2) & 1
			switch op {
			case fzRead:
				v1, f1 := cpu.ReadVirt(va, size)
				v2, f2 := ref.readVirt(va, size)
				if v1 != v2 || f1 != f2 {
					t.Fatalf("step %d: ReadVirt(%#x, %d) = %#x, %v; bare walk %#x, %v", step, va, size, v1, f1, v2, f2)
				}
			case fzWrite:
				v := uint64(step+1) * 0x9E3779B97F4A7C15
				if a&0x40 != 0 {
					// A plausible PTE, for stores that land in a page table.
					v = cached.frames[int(c>>3)%len(cached.frames)]<<mem.PageShift | uint64(c)&7 | mem.PTEAccessed
				}
				f1, f2 := cpu.WriteVirt(va, v, size), ref.writeVirt(va, v, size)
				if f1 != f2 {
					t.Fatalf("step %d: WriteVirt(%#x, %d) = %v; bare walk %v", step, va, size, f1, f2)
				}
			case fzXlate:
				write, exec := b&3 == 1, b&3 == 2
				p1, f1 := cpu.Translate(va, write, exec)
				p2, f2 := ref.translate(va, write, exec)
				if p1 != p2 || f1 != f2 {
					t.Fatalf("step %d: Translate(%#x, %v, %v) = %#x, %v; bare walk %#x, %v", step, va, write, exec, p1, f1, p2, f2)
				}
			case fzFetch:
				var b1, b2 [24]byte
				n1, f1 := cpu.FetchCode(va, b1[:])
				n2, f2 := ref.fetchCode(va, b2[:])
				if n1 != n2 || f1 != f2 || b1 != b2 {
					t.Fatalf("step %d: FetchCode(%#x) = %d, %v, %x; bare walk %d, %v, %x", step, va, n1, f1, b1, n2, f2, b2)
				}
			case fzRemap:
				// The leaf PTE names another frame (or, unmapped, comes
				// back): a raw physical write, no FlushGen.
				mfn := cached.frames[int(c)%len(cached.frames)]
				both(t, cached, bare, func(tw *fuzzTwin) error {
					pte, _ := tw.pm.Read(tw.leaf[space][vi], 8)
					return tw.pm.Write(tw.leaf[space][vi], pte&^mem.PTEAddrMask|mfn<<mem.PageShift|mem.PTEPresent, 8)
				})
			case fzFlag:
				bit := []uint64{mem.PTEPresent, mem.PTEWritable, mem.PTEUser, mem.PTEAccessed, mem.PTEDirty, mem.PTENX}[int(c)%6]
				both(t, cached, bare, func(tw *fuzzTwin) error {
					pte, _ := tw.pm.Read(tw.leaf[space][vi], 8)
					return tw.pm.Write(tw.leaf[space][vi], pte^bit, 8)
				})
			case fzUpper:
				bit := []uint64{mem.PTEPresent, mem.PTEAccessed}[int(c)&1]
				both(t, cached, bare, func(tw *fuzzTwin) error {
					addr := tw.upper[space][vi][int(c>>1)%3]
					pte, _ := tw.pm.Read(addr, 8)
					return tw.pm.Write(addr, pte^bit, 8)
				})
			case fzCR3:
				cpu.CR3, ref.cr3 = cached.cr3[b&1], bare.cr3[b&1]
			case fzMode:
				cpu.Kernel, ref.kernel = b&1 != 0, b&1 != 0
			case fzInstallData:
				mfn := cached.frames[int(c)%fzDataFrames]
				both(t, cached, bare, func(tw *fuzzTwin) error {
					tw.pm.InstallPage(mfn, bytes.Repeat([]byte{byte(step), b}, 64))
					return nil
				})
			case fzInstallPT:
				// Re-install a page table with one entry's Present bit
				// flipped (the restore path replaces the backing store).
				both(t, cached, bare, func(tw *fuzzTwin) error {
					mfn := tw.tables[int(b)%len(tw.tables)]
					var pg mem.Page
					if err := tw.pm.ReadBytes(mfn<<mem.PageShift, pg[:]); err != nil {
						return err
					}
					pg[tw.slots[int(c)%len(tw.slots)]] ^= byte(mem.PTEPresent)
					tw.pm.InstallPage(mfn, pg[:])
					return nil
				})
			}
			for i := range cpus {
				if cpus[i].CR2 != refs[i].cr2 {
					t.Fatalf("step %d (op %d): VCPU %d CR2 %#x; bare walk %#x", step, op, i, cpus[i].CR2, refs[i].cr2)
				}
			}
		}
		var got, want []byte
		cached.pm.ForEachPage(func(mfn uint64, p *mem.Page) {
			got = append(append(got, byte(mfn), byte(mfn>>8), byte(mfn>>16)), p[:]...)
		})
		bare.pm.ForEachPage(func(mfn uint64, p *mem.Page) {
			want = append(append(want, byte(mfn), byte(mfn>>8), byte(mfn>>16)), p[:]...)
		})
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("memories differ at page %d offset %#x: cached side %#x, bare side %#x (A/D bits a hit should not have skipped?)",
						i/(mem.PageSize+3), i%(mem.PageSize+3)-3, got[i], want[i])
				}
			}
		}
	})
}

// Operation codes of the fuzz stream (first byte of each fzOpLen-byte
// op).
const fzOpLen = 6

const (
	fzRead = iota
	fzWrite
	fzXlate
	fzFetch
	fzRemap
	fzFlag
	fzUpper
	fzCR3
	fzMode
	fzInstallData
	fzInstallPT
	fzOps
)

// Six private pages per space at userVA.. and three shared supervisor
// pages at kernVA.. (top-level slot 256).
const (
	fzVAs        = 9
	fzPrivate    = 6
	fzDataFrames = 6
)

func fzVA(i int) uint64 {
	if i < fzPrivate {
		return userVA + uint64(i)*mem.PageSize
	}
	return kernVA + uint64(i-fzPrivate)*mem.PageSize
}

// fuzzTwin is one of the two memories. The allocator is deterministic,
// so two builds give the same frame numbers.
type fuzzTwin struct {
	pm  *mem.PhysMem
	cr3 [2]uint64
	// frames is what a leaf PTE may be pointed at: fzDataFrames data
	// frames, then space 0's private leaf table and the shared leaf
	// table, so that a store through such a mapping edits PTEs.
	frames []uint64
	leaf   [2][fzVAs]uint64    // leaf PTE address
	upper  [2][fzVAs][3]uint64 // PML4E, PDPTE, PDE addresses
	tables []uint64            // every page-table frame
	slots  []uint64            // byte offsets of the PTEs in use, any level
}

func newFuzzTwin(t *testing.T) *fuzzTwin {
	t.Helper()
	tw := &fuzzTwin{pm: mem.NewPhysMem()}
	tw.frames = tw.pm.AllocPages(fzDataFrames)
	for i, mfn := range tw.frames {
		if err := tw.pm.WriteBytes(mfn<<mem.PageShift, bytes.Repeat([]byte{byte(0x11 * (i + 1))}, mem.PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	// Space 1's root comes from further along the allocator's sequence,
	// where the frame number meets space 0's in the translation cache's
	// index: the same virtual page of the two spaces then competes for
	// one slot and only the entry's CR3 tells them apart.
	var as [2]*mem.AddressSpace
	as[0] = mem.NewAddressSpace(tw.pm)
	fzRoot1.Do(func() {
		scratch := mem.NewPhysMem()
		scratch.SetAllocCursor(tw.pm.AllocCursor())
		for {
			fzRoot1.cursor = scratch.AllocCursor()
			if xlateIndex(0, scratch.AllocPage()<<mem.PageShift) == xlateIndex(0, as[0].CR3()) {
				return
			}
		}
	})
	tw.pm.SetAllocCursor(fzRoot1.cursor)
	as[1] = mem.NewAddressSpace(tw.pm)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := fzPrivate; i < fzVAs; i++ {
		must(as[0].Map(fzVA(i), tw.frames[i%fzDataFrames], mem.PTEWritable))
	}
	must(as[1].ShareTopLevel(as[0], 256))
	for s := range as {
		for i := 0; i < fzPrivate; i++ {
			must(as[s].Map(fzVA(i), tw.frames[(i+3*s)%fzDataFrames], mem.PTEWritable|mem.PTEUser))
		}
		tw.cr3[s] = as[s].CR3()
	}
	seenTable, seenSlot := map[uint64]bool{}, map[uint64]bool{}
	for s := range as {
		for i := 0; i < fzVAs; i++ {
			w := mem.Walk(tw.pm, tw.cr3[s], fzVA(i), mem.Access{})
			if w.Fault != uops.FaultNone || w.Depth != mem.PTLevels {
				t.Fatalf("space %d va %d not mapped: %v", s, i, w.Fault)
			}
			copy(tw.upper[s][i][:], w.PTEAddrs[:3])
			tw.leaf[s][i] = w.PTEAddrs[3]
			for _, a := range w.PTEAddrs {
				if !seenTable[a>>mem.PageShift] {
					seenTable[a>>mem.PageShift] = true
					tw.tables = append(tw.tables, a>>mem.PageShift)
				}
				if !seenSlot[a&mem.PageMask] {
					seenSlot[a&mem.PageMask] = true
					tw.slots = append(tw.slots, a&mem.PageMask)
				}
			}
		}
	}
	tw.frames = append(tw.frames, tw.leaf[0][0]>>mem.PageShift, tw.leaf[0][fzPrivate]>>mem.PageShift)
	return tw
}

// fzRoot1 is the allocator position of space 1's root, searched once.
var fzRoot1 struct {
	sync.Once
	cursor uint64
}

// both applies one memory operation to the two memories.
func both(t *testing.T, a, b *fuzzTwin, op func(*fuzzTwin) error) {
	t.Helper()
	if err := op(a); err != nil {
		t.Fatal(err)
	}
	if err := op(b); err != nil {
		t.Fatal(err)
	}
}

// refCPU is the functional memory path with no cache of any kind:
// Translate, ReadVirt, WriteVirt and FetchCode as full walks plus
// physical accesses. It is the reference the fuzz target compares the
// cached path against.
type refCPU struct {
	pm     *mem.PhysMem
	cr3    uint64
	cr2    uint64
	kernel bool
}

func (r *refCPU) translate(va uint64, write, exec bool) (uint64, uops.Fault) {
	w := mem.Walk(r.pm, r.cr3, va, mem.Access{Write: write, Exec: exec, User: !r.kernel, SetAD: true})
	if w.Fault != uops.FaultNone {
		r.cr2 = va
		return 0, w.Fault
	}
	return w.PhysAddr(va), uops.FaultNone
}

func (r *refCPU) readVirt(va uint64, size uint8) (uint64, uops.Fault) {
	first := splitAt(va, size)
	pa, fault := r.translate(va, false, false)
	if fault != uops.FaultNone {
		return 0, fault
	}
	if first == size {
		v, err := r.pm.Read(pa, size)
		if err != nil {
			r.cr2 = va
			return 0, uops.FaultPageRead
		}
		return v, uops.FaultNone
	}
	lo, err := r.pm.Read(pa, first)
	if err != nil {
		return 0, uops.FaultPageRead
	}
	pa2, fault := r.translate(va+uint64(first), false, false)
	if fault != uops.FaultNone {
		return 0, fault
	}
	hi, err := r.pm.Read(pa2, size-first)
	if err != nil {
		return 0, uops.FaultPageRead
	}
	return lo | hi<<(8*first), uops.FaultNone
}

func (r *refCPU) writeVirt(va, v uint64, size uint8) uops.Fault {
	first := splitAt(va, size)
	pa, fault := r.translate(va, true, false)
	if fault != uops.FaultNone {
		return fault
	}
	if first == size {
		if err := r.pm.Write(pa, v, size); err != nil {
			return uops.FaultPageWrite
		}
		return uops.FaultNone
	}
	pa2, fault := r.translate(va+uint64(first), true, false)
	if fault != uops.FaultNone {
		return fault
	}
	if err := r.pm.Write(pa, v&uops.Mask(first), first); err != nil {
		return uops.FaultPageWrite
	}
	if err := r.pm.Write(pa2, v>>(8*first), size-first); err != nil {
		return uops.FaultPageWrite
	}
	return uops.FaultNone
}

func (r *refCPU) fetchCode(va uint64, buf []byte) (int, uops.Fault) {
	total := 0
	for total < len(buf) {
		pa, fault := r.translate(va+uint64(total), false, true)
		if fault != uops.FaultNone {
			if total == 0 {
				return 0, fault
			}
			return total, uops.FaultNone
		}
		n := int(mem.PageSize - pa&mem.PageMask)
		if n > len(buf)-total {
			n = len(buf) - total
		}
		if err := r.pm.ReadBytes(pa, buf[total:total+n]); err != nil {
			if total == 0 {
				return 0, uops.FaultPageExec
			}
			return total, uops.FaultNone
		}
		total += n
	}
	return total, uops.FaultNone
}
