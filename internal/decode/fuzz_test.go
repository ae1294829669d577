package decode

import (
	"slices"
	"testing"

	"ptlsim/internal/conformance/corpus"
	"ptlsim/internal/uops"
	"ptlsim/internal/x86"
)

// fuzzFetch builds a FetchFunc serving code at base, returning at most
// chunk bytes per call (chunk <= 0 means as many as fit in buf). Small
// chunks emulate instructions straddling page boundaries, the path
// where BuildBB re-fetches at the next page.
func fuzzFetch(code []byte, base uint64, chunk int) FetchFunc {
	return func(va uint64, buf []byte) (int, uops.Fault) {
		off := va - base // wraparound-safe: off >= len(code) covers va < base too
		if off >= uint64(len(code)) {
			return 0, uops.FaultPageExec
		}
		n := copy(buf, code[off:])
		if chunk > 0 && n > chunk {
			n = chunk
		}
		return n, uops.FaultNone
	}
}

// checkBB asserts the structural invariants every successfully built
// basic block must satisfy, whatever bytes produced it.
func checkBB(t *testing.T, bb *BasicBlock, fault uops.Fault) {
	t.Helper()
	if fault != uops.FaultNone {
		if bb != nil {
			t.Fatalf("fault %v with non-nil block", fault)
		}
		return
	}
	if bb == nil {
		t.Fatal("no fault and no block")
	}
	if bb.NumX86 < 1 || bb.NumX86 > MaxBBX86Insns {
		t.Fatalf("NumX86 = %d outside [1, %d]", bb.NumX86, MaxBBX86Insns)
	}
	if len(bb.Uops) == 0 {
		t.Fatal("block with zero uops")
	}
	if bb.X86Len == 0 {
		t.Fatal("block with zero X86Len")
	}
	if bb.X86Len > uint64(bb.NumX86)*uint64(x86.MaxInstLen) {
		t.Fatalf("X86Len %d exceeds %d instructions * max length", bb.X86Len, bb.NumX86)
	}
	// SOM/EOM must partition the uops into complete instruction groups:
	// every group starts with SOM, ends with EOM, and the block ends at
	// a group boundary (the builder only truncates between
	// instructions).
	groups := 0
	expectSOM := true
	for i, u := range bb.Uops {
		if u.SOM != expectSOM {
			t.Fatalf("uop %d: SOM=%v, want %v", i, u.SOM, expectSOM)
		}
		if u.SOM {
			groups++
		}
		expectSOM = u.EOM
		// Every uop belongs to an instruction inside the block's byte
		// range (modular compare tolerates blocks near the top of the
		// address space).
		if u.RIP-bb.RIP >= bb.X86Len {
			t.Fatalf("uop %d: rip %#x outside block [%#x, +%d)", i, u.RIP, bb.RIP, bb.X86Len)
		}
	}
	if !expectSOM {
		t.Fatal("block ends mid-instruction (last uop lacks EOM)")
	}
	// REP pseudo-groups (NoCount) may add groups beyond the counted
	// instructions, never remove them.
	if groups < bb.NumX86 {
		t.Fatalf("%d uop groups < %d x86 instructions", groups, bb.NumX86)
	}
}

// seedCorpus is shared by both targets. The seeds live in the shared
// conformance corpus (testdata/conformance/seed) so decode fuzzing and
// the execution fuzzer in internal/conformance mutate the same byte
// sequences: representative encodings plus known edge cases (UD,
// truncation, REP pseudo-groups, branches, VA wraparound).
func seedCorpus(f *testing.F) {
	dir, err := corpus.SeedDir()
	if err != nil {
		f.Fatalf("locating seed corpus: %v", err)
	}
	cases, err := corpus.Load(dir)
	if err != nil {
		f.Fatalf("loading seed corpus: %v", err)
	}
	if len(cases) == 0 {
		f.Fatalf("seed corpus %s is empty", dir)
	}
	for _, c := range cases {
		code, err := c.Code()
		if err != nil {
			f.Fatal(err)
		}
		rip := c.RIP
		if rip == 0 {
			rip = 0x40_1000
		}
		f.Add(code, rip)
	}
}

// FuzzBuildBB feeds arbitrary bytes at an arbitrary RIP through the
// decoder and translator: whatever the input, BuildBB must not panic,
// and any block it returns must satisfy the structural invariants the
// pipeline relies on (group well-formedness, length bounds). The same
// bytes built through an arena (with chunks small enough to run out
// every few blocks, as the BB cache's do over a run) must give the same
// block, and must leave the block the arena built before untouched.
func FuzzBuildBB(f *testing.F) {
	seedCorpus(f)
	arena := &Arena{uops: Chunks[uops.Uop]{Size: 64}, blocks: Chunks[BasicBlock]{Size: 4}}
	var prev *BasicBlock
	var prevUops []uops.Uop
	f.Fuzz(func(t *testing.T, code []byte, rip uint64) {
		bb, fault := BuildBB(fuzzFetch(code, rip, 0), rip)
		checkBB(t, bb, fault)
		got, gotFault := arena.Build(fuzzFetch(code, rip, 0), rip)
		if gotFault != fault {
			t.Fatalf("arena build faulted %v, heap build %v", gotFault, fault)
		}
		if bb == nil {
			return
		}
		if got.RIP != bb.RIP || got.X86Len != bb.X86Len || got.NumX86 != bb.NumX86 ||
			got.EndsInBranch != bb.EndsInBranch || !slices.Equal(got.Uops, bb.Uops) {
			t.Fatalf("arena build differs from heap build:\n%+v\n%+v", got, bb)
		}
		if prev != nil && !slices.Equal(prev.Uops, prevUops) {
			t.Fatal("building a block changed the block the arena built before it")
		}
		prev, prevUops = got, slices.Clone(got.Uops)
	})
}

// TestArenaBuildDoesNotAllocate: building into an arena whose chunks
// have room allocates nothing, translation buffer included.
func TestArenaBuildDoesNotAllocate(t *testing.T) {
	code := []byte{
		0x48, 0x01, 0xd8, // add rax, rbx
		0x48, 0x89, 0x47, 0x08, // mov [rdi+8], rax
		0x48, 0xf7, 0xdb, // neg rbx
		0xff, 0x47, 0x10, // inc dword [rdi+16]
		0xf3, 0x48, 0xa5, // rep movsq, which ends the block
	}
	arena := &Arena{uops: Chunks[uops.Uop]{Size: 1 << 14}, blocks: Chunks[BasicBlock]{Size: 1 << 8}}
	fetch := fuzzFetch(code, 0x1000, 0)
	if bb, fault := arena.Build(fetch, 0x1000); fault != uops.FaultNone || bb.NumX86 != 5 {
		t.Fatalf("fault %v, block %+v", fault, bb)
	}
	if n := testing.AllocsPerRun(100, func() { arena.Build(fetch, 0x1000) }); n != 0 {
		t.Fatalf("%v allocations per block built into the arena", n)
	}
}

// FuzzBuildBBPaged is FuzzBuildBB with the fetch callback returning a
// few bytes at a time, driving the page-crossing re-fetch path on every
// instruction.
func FuzzBuildBBPaged(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, code []byte, rip uint64) {
		for _, chunk := range []int{1, 3, 7} {
			bb, fault := BuildBB(fuzzFetch(code, rip, chunk), rip)
			checkBB(t, bb, fault)
		}
	})
}
