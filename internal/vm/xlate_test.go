package vm

import (
	"testing"

	"ptlsim/internal/mem"
	"ptlsim/internal/uops"
)

// The host-side translation cache must be invisible: whatever changes
// a PTE — here always a raw PhysMem.Write with no FlushGen bump, the
// weakest notification any caller gives — is seen by the very next
// access. Each test first warms the entry it then makes stale.

// xenv is two address spaces over one PhysMem sharing top-level slot
// 256, with user pages at userVA.. and a supervisor-only page at
// kernVA in the shared slot.
type xenv struct {
	pm     *mem.PhysMem
	as     [2]*mem.AddressSpace
	frames []uint64 // data frames, each filled with its index+1
}

const (
	userVA = 0x400000
	kernVA = 0xFFFF800000000000
)

func newXenv(t testing.TB) *xenv {
	t.Helper()
	e := &xenv{pm: mem.NewPhysMem()}
	e.frames = e.pm.AllocPages(6)
	for i, mfn := range e.frames {
		for off := uint64(0); off < mem.PageSize; off += 8 {
			if err := e.pm.Write(mfn<<mem.PageShift+off, uint64(i+1)*0x0101010101010101, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.as[0], e.as[1] = mem.NewAddressSpace(e.pm), mem.NewAddressSpace(e.pm)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.as[0].Map(userVA, e.frames[0], mem.PTEWritable|mem.PTEUser))
	must(e.as[0].Map(userVA+mem.PageSize, e.frames[1], mem.PTEWritable|mem.PTEUser))
	must(e.as[0].Map(kernVA, e.frames[2], mem.PTEWritable))
	must(e.as[1].ShareTopLevel(e.as[0], 256))
	must(e.as[1].Map(userVA, e.frames[3], mem.PTEWritable|mem.PTEUser))
	return e
}

func (e *xenv) ctx(id int, as int, kernel bool) *Context {
	c := NewContext(&Machine{PM: e.pm}, id)
	c.CR3 = e.as[as].CR3()
	c.Kernel = kernel
	return c
}

// leaf returns the physical address and value of va's leaf PTE.
func (e *xenv) leaf(t testing.TB, as int, va uint64) (uint64, uint64) {
	t.Helper()
	addr, err := e.as[as].LeafPTEAddr(va)
	if err != nil {
		t.Fatal(err)
	}
	pte, err := e.pm.Read(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	return addr, pte
}

func (e *xenv) poke(t testing.TB, pa, v uint64) {
	t.Helper()
	if err := e.pm.Write(pa, v, 8); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t testing.TB, c *Context, va uint64, want uint64) {
	t.Helper()
	v, f := c.ReadVirt(va, 8)
	if f != uops.FaultNone || v != want {
		t.Fatalf("ReadVirt(%#x) = %#x, %v; want %#x", va, v, f, want)
	}
}

const (
	fill1 = 0x0101010101010101
	fill2 = 0x0202020202020202
	fill5 = 0x0505050505050505
)

// cached reports whether c holds a live entry for va in class cls.
func cached(c *Context, va uint64, cls int) bool {
	e := &c.xlate[cls][xlateIndex(va, c.CR3)]
	return e.page != nil && e.tag>>1 == va>>mem.PageShift && e.cr3 == c.CR3 && e.gen == c.M.PM.TranslationGen()
}

func TestXlateRemapByRawPTEWrite(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	mustRead(t, c, userVA, fill1)
	mustRead(t, c, userVA, fill1)
	if !cached(c, userVA, xlateRead) {
		t.Fatal("second read did not leave a cached translation to make stale")
	}
	addr, pte := e.leaf(t, 0, userVA)
	e.poke(t, addr, pte&^mem.PTEAddrMask|e.frames[4]<<mem.PageShift)
	mustRead(t, c, userVA, fill5)
	// Unmapping is the same write with a zero.
	e.poke(t, addr, 0)
	if _, f := c.ReadVirt(userVA, 8); f != uops.FaultPageRead || c.CR2 != userVA {
		t.Fatalf("read of unmapped page: %v, CR2 %#x", f, c.CR2)
	}
}

func TestXlateReadOnlyFaultsStoreNotLoad(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	if f := c.WriteVirt(userVA+8, 7, 8); f != uops.FaultNone {
		t.Fatal(f)
	}
	mustRead(t, c, userVA+8, 7)
	addr, pte := e.leaf(t, 0, userVA)
	e.poke(t, addr, pte&^mem.PTEWritable)
	c.CR2 = 0
	if f := c.WriteVirt(userVA+8, 9, 8); f != uops.FaultPageWrite || c.CR2 != userVA+8 {
		t.Fatalf("store to read-only page: %v, CR2 %#x", f, c.CR2)
	}
	mustRead(t, c, userVA+8, 7)
	if _, f := c.Translate(userVA, true, false); f != uops.FaultPageWrite {
		t.Fatalf("write translate of read-only page: %v", f)
	}
}

func TestXlateClearedDirtyIsSetAgain(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	if f := c.WriteVirt(userVA, 1, 8); f != uops.FaultNone {
		t.Fatal(f)
	}
	addr, pte := e.leaf(t, 0, userVA)
	if pte&mem.PTEDirty == 0 || pte&mem.PTEAccessed == 0 {
		t.Fatalf("store left PTE %#x without A/D", pte)
	}
	e.poke(t, addr, pte&^(mem.PTEDirty|mem.PTEAccessed))
	if f := c.WriteVirt(userVA, 2, 8); f != uops.FaultNone {
		t.Fatal(f)
	}
	if _, pte = e.leaf(t, 0, userVA); pte&mem.PTEDirty == 0 || pte&mem.PTEAccessed == 0 {
		t.Fatalf("store after A/D were cleared left PTE %#x", pte)
	}
	// A load after clearing Accessed alone sets it again too.
	mustRead(t, c, userVA, 2)
	e.poke(t, addr, pte&^mem.PTEAccessed)
	mustRead(t, c, userVA, 2)
	if _, pte = e.leaf(t, 0, userVA); pte&mem.PTEAccessed == 0 {
		t.Fatalf("load after Accessed was cleared left PTE %#x", pte)
	}
}

func TestXlateUserMissesKernelEntry(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, true)
	want := uint64(3) * fill1
	mustRead(t, c, kernVA, want)
	mustRead(t, c, kernVA, want)
	c.Kernel = false
	if _, f := c.ReadVirt(kernVA, 8); f != uops.FaultPageRead || c.CR2 != kernVA {
		t.Fatalf("user read of supervisor page: %v, CR2 %#x", f, c.CR2)
	}
	if _, f := c.Translate(kernVA, false, true); f != uops.FaultPageExec {
		t.Fatalf("user fetch from supervisor page: %v", f)
	}
	c.Kernel = true
	mustRead(t, c, kernVA, want)
}

func TestXlateClassesDoNotServeEachOther(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	addr, pte := e.leaf(t, 0, userVA)
	e.poke(t, addr, pte&^mem.PTEWritable|mem.PTENX)
	mustRead(t, c, userVA, fill1)
	mustRead(t, c, userVA, fill1)
	if _, f := c.Translate(userVA, true, false); f != uops.FaultPageWrite {
		t.Fatalf("write after cached read of a read-only page: %v", f)
	}
	if _, f := c.Translate(userVA, false, true); f != uops.FaultPageExec {
		t.Fatalf("fetch after cached read of an NX page: %v", f)
	}
	var buf [4]byte
	if n, f := c.FetchCode(userVA, buf[:]); n != 0 || f != uops.FaultPageExec {
		t.Fatalf("FetchCode from NX page: %d, %v", n, f)
	}
}

func TestXlateCR3Switch(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	mustRead(t, c, userVA, fill1)
	c.CR3 = e.as[1].CR3()
	mustRead(t, c, userVA, 4*fill1)
	c.CR3 = e.as[0].CR3()
	mustRead(t, c, userVA, fill1)

	// CR3 is folded into the index, so two spaces rarely meet in one
	// slot; build spaces until one collides with space 0 there, so the
	// entry's own CR3 is what tells them apart.
	for tries := 0; ; tries++ {
		if tries == 100*xlateEntries {
			t.Fatal("no colliding address space found")
		}
		as := mem.NewAddressSpace(e.pm)
		if xlateIndex(userVA, as.CR3()) != xlateIndex(userVA, e.as[0].CR3()) {
			continue
		}
		if err := as.Map(userVA, e.frames[4], mem.PTEWritable|mem.PTEUser); err != nil {
			t.Fatal(err)
		}
		mustRead(t, c, userVA, fill1)
		mustRead(t, c, userVA, fill1)
		c.CR3 = as.CR3()
		mustRead(t, c, userVA, fill5)
		return
	}
}

func TestXlateInstallPage(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	mustRead(t, c, userVA, fill1)
	mustRead(t, c, userVA, fill1)
	// Over the data frame: a cached host page would still show fill1.
	e.pm.InstallPage(e.frames[0], []byte{0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA})
	mustRead(t, c, userVA, 0xAAAAAAAAAAAAAAAA)
	// Over the page-table frame: the mapping itself changes.
	addr, pte := e.leaf(t, 0, userVA)
	var pt mem.Page
	if err := e.pm.ReadBytes(addr&^mem.PageMask, pt[:]); err != nil {
		t.Fatal(err)
	}
	pte = pte&^mem.PTEAddrMask | e.frames[1]<<mem.PageShift
	for i := 0; i < 8; i++ {
		pt[addr&mem.PageMask+uint64(i)] = byte(pte >> (8 * i))
	}
	e.pm.InstallPage(addr>>mem.PageShift, pt[:])
	mustRead(t, c, userVA, fill2)
	// A later raw write to the re-installed table is still seen.
	e.poke(t, addr, pte&^mem.PTEAddrMask|e.frames[4]<<mem.PageShift)
	mustRead(t, c, userVA, fill5)
}

func TestXlateSecondVCPUInvalidates(t *testing.T) {
	e := newXenv(t)
	c0, c1 := e.ctx(0, 0, true), e.ctx(1, 1, true)
	want := uint64(3) * fill1
	mustRead(t, c0, kernVA, want)
	mustRead(t, c0, kernVA, want)
	// VCPU 1 maps the page tables of the shared slot and stores a new
	// leaf PTE through its own virtual address, as a guest kernel does.
	addr, pte := e.leaf(t, 1, kernVA)
	const ptVA = kernVA + 0x10000
	if err := e.as[1].Map(ptVA, addr>>mem.PageShift, mem.PTEWritable); err != nil {
		t.Fatal(err)
	}
	mustRead(t, c0, kernVA, want)
	if f := c1.WriteVirt(ptVA+addr&mem.PageMask, pte&^mem.PTEAddrMask|e.frames[4]<<mem.PageShift, 8); f != uops.FaultNone {
		t.Fatal(f)
	}
	mustRead(t, c0, kernVA, fill5)
	mustRead(t, c1, kernVA, fill5)
}

func TestXlateCloneHasNoCache(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	mustRead(t, c, userVA, fill1)
	cp := c.Clone()
	if cp.xlate != nil {
		t.Fatal("Clone carried the translation cache over")
	}
	mustRead(t, cp, userVA, fill1)
	if f := cp.WriteVirt(userVA, 11, 8); f != uops.FaultNone {
		t.Fatal(f)
	}
	mustRead(t, c, userVA, 11)
	if cp.xlate != nil {
		t.Fatal("a clone grew a cache")
	}
}

func TestXlateHitDoesNotAllocate(t *testing.T) {
	e := newXenv(t)
	c := e.ctx(0, 0, false)
	// Twice: the first write walk sets Dirty in a frame the read walk
	// has marked, which moves the generation once.
	for i := 0; i < 2; i++ {
		mustRead(t, c, userVA, fill1)
		mustRead(t, c, userVA+mem.PageSize, fill2)
		if _, f := c.Translate(userVA, true, false); f != uops.FaultNone {
			t.Fatal(f)
		}
	}
	if !cached(c, userVA, xlateRead) || !cached(c, userVA, xlateWrite) {
		t.Fatal("warm-up left no cached translation")
	}
	gen := e.pm.TranslationGen()
	if n := testing.AllocsPerRun(100, func() {
		c.Translate(userVA+0x10, false, false)
		c.Translate(userVA+0x10, true, false)
		c.ReadVirt(userVA+0x20, 4)
		c.ReadVirt(userVA+mem.PageSize-3, 8)
	}); n != 0 {
		t.Fatalf("%v allocations per hit", n)
	}
	if e.pm.TranslationGen() != gen {
		t.Fatal("hits moved the translation generation")
	}
}
