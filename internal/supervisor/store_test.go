package supervisor

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptlsim/internal/snapshot"
)

// tinyImage hand-builds a minimal valid image (one VCPU, no pages) —
// enough to exercise the store without booting a machine.
func tinyImage(cycle uint64) *snapshot.Image {
	return &snapshot.Image{Cycle: cycle, VCPUs: []snapshot.VCPUImage{{}}}
}

func TestStoreRotationPrunes(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 1; i <= 5; i++ {
		p, err := s.Save(tinyImage(uint64(i * 100)))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	slots := s.Slots()
	if len(slots) != 2 {
		t.Fatalf("keep=2 retained %d slots: %v", len(slots), slots)
	}
	if slots[0] != paths[4] || slots[1] != paths[3] {
		t.Fatalf("slots %v, want newest two of %v", slots, paths)
	}
	img, slot, err := s.LoadLatest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if slot != paths[4] || img.Cycle != 500 {
		t.Fatalf("latest = %s cycle %d, want %s cycle 500", slot, img.Cycle, paths[4])
	}
}

func TestStoreLoadLatestFallsBackAcrossBadSlots(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for i := 1; i <= 3; i++ {
		p, err := s.Save(tinyImage(uint64(i * 100)))
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	// Newest slot: payload corruption. Second newest: truncation.
	data, err := os.ReadFile(paths[2])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(paths[2], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(paths[1], 40); err != nil {
		t.Fatal(err)
	}

	var discarded []string
	img, slot, err := s.LoadLatest(func(p string, err error) {
		discarded = append(discarded, filepath.Base(p)+": "+err.Error())
	})
	if err != nil {
		t.Fatal(err)
	}
	if slot != paths[0] || img.Cycle != 100 {
		t.Fatalf("fell back to %s (cycle %d), want %s", slot, img.Cycle, paths[0])
	}
	if len(discarded) != 2 {
		t.Fatalf("discards: %v", discarded)
	}
	if !strings.Contains(discarded[0], "checksum") {
		t.Fatalf("newest slot should fail its checksum: %s", discarded[0])
	}
	if !strings.Contains(discarded[1], "truncated") {
		t.Fatalf("second slot should be truncated: %s", discarded[1])
	}
	// Rejected slots are removed so the rotation cannot resurrect them.
	if got := s.Slots(); len(got) != 1 || got[0] != paths[0] {
		t.Fatalf("bad slots should be deleted, have %v", got)
	}
}

func TestStoreLoadLatestEmpty(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.LoadLatest(nil); err == nil {
		t.Fatal("empty store must fail LoadLatest")
	}
}

func TestStoreSequenceResumesAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s1.Save(tinyImage(1))
	if err != nil {
		t.Fatal(err)
	}
	// A second process opening the same rotation must continue, not
	// restart, the numbering (restarting would make an old slot "newest").
	s2, err := OpenStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.Save(tinyImage(2))
	if err != nil {
		t.Fatal(err)
	}
	if p2 <= p1 {
		t.Fatalf("sequence did not resume: %s then %s", p1, p2)
	}
	img, slot, err := s2.LoadLatest(nil)
	if err != nil {
		t.Fatal(err)
	}
	if slot != p2 || img.Cycle != 2 {
		t.Fatalf("latest = %s cycle %d, want %s cycle 2", slot, img.Cycle, p2)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.now = func() time.Time { return time.Unix(1754000000, 0) }
	in := []Entry{
		{Event: EventRunStart, Attempt: 1, Cycle: 10},
		{Event: EventFailure, Attempt: 1, Cycle: 99, Kind: "panic", Message: "boom", Retryable: true},
		{Event: EventRestore, Attempt: 1, Cycle: 50, Slot: "ckpt-00000002.ckpt", BackoffMs: 100},
		{Event: EventDegradeOff, Attempt: 2, FromCycle: 50, ToCycle: 150, Insns: 1234},
	}
	for _, e := range in {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d entries, wrote %d", len(out), len(in))
	}
	for i := range in {
		in[i].Time = out[i].Time       // stamped on append
		in[i].Started = out[i].Started // stamped on append
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
		if out[i].Time == "" {
			t.Fatalf("entry %d missing timestamp", i)
		}
		if out[i].Started == "" {
			t.Fatalf("entry %d missing run start time", i)
		}
	}
}

// TestJournalWallClock: Append stamps every entry with the run's start
// time and the elapsed milliseconds since it, writer-set values win,
// and both the report renderer and FormatEntry surface the latency.
func TestJournalWallClock(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	clock := time.Unix(1754000000, 0)
	j.now = func() time.Time {
		now := clock
		clock = clock.Add(150 * time.Millisecond)
		return now
	}
	j.Append(Entry{Event: EventRunStart, Attempt: 1})
	j.Append(Entry{Event: EventComplete, Attempt: 1, Cycle: 1000, Insns: 900})
	j.Append(Entry{Event: EventFuzzShrink, ElapsedMs: 77, Message: "9 units to 2"}) // the writer's own span wins

	out, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].ElapsedMs != 0 || out[1].ElapsedMs != 150 {
		t.Fatalf("elapsed stamps wrong: %d, %d", out[0].ElapsedMs, out[1].ElapsedMs)
	}
	if out[0].Started == "" || out[0].Started != out[1].Started {
		t.Fatalf("run start not stamped consistently: %q vs %q", out[0].Started, out[1].Started)
	}
	if out[2].ElapsedMs != 77 || out[2].Started != out[0].Started {
		t.Fatalf("writer-set elapsed overwritten, or run start not stamped: %+v", out[2])
	}

	for i, want := range map[int]string{1: "t=+150ms", 2: "t=+77ms"} {
		if line := FormatEntry(out[i]); !strings.Contains(line, want) {
			t.Errorf("FormatEntry missing elapsed %s: %s", want, line)
		}
	}
	var report strings.Builder
	WriteReport(&report, out, 0)
	if want := "wall clock: 150ms"; !strings.Contains(report.String(), want) {
		t.Errorf("report missing %q:\n%s", want, report.String())
	}
}

// TestJournalTornTail: a crashed writer leaves a half line; everything
// before it must still parse.
func TestJournalTornTail(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Append(Entry{Event: EventRunStart, Attempt: 1})
	j.Append(Entry{Event: EventCheckpoint, Attempt: 1, Cycle: 100})
	buf.WriteString(`{"event":"fail`) // torn mid-record
	out, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].Event != EventCheckpoint {
		t.Fatalf("torn tail should preserve prior history: %+v", out)
	}
}

// TestJournalTornMiddleLine: a torn line in the *middle* of the log —
// a writer crashed mid-append and a restarted daemon appended past the
// wreckage — must not truncate the report at the tear. The entries on
// both sides survive and the skip is counted.
func TestJournalTornMiddleLine(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Append(Entry{Event: EventRunStart, Attempt: 1})
	buf.WriteString(`{"event":"checkpo` + "\n") // torn, newline landed
	buf.WriteString("\x00\x00garbage\n")        // binary wreckage
	j.Append(Entry{Event: EventComplete, Attempt: 1, Cycle: 500, Insns: 400})

	out, skipped, err := ReadJournalSkipping(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if len(out) != 2 || out[0].Event != EventRunStart || out[1].Event != EventComplete {
		t.Fatalf("entries around the tear lost: %+v", out)
	}
	// The rendered report still reaches the outcome past the tear.
	var report strings.Builder
	WriteReport(&report, out, 0)
	if !strings.Contains(report.String(), "completed at cycle 500") {
		t.Fatalf("report truncated at torn line:\n%s", report.String())
	}
}

// TestJournalNilSafe: a supervisor without a journal writer must not
// crash on logging.
func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	if err := j.Append(Entry{Event: EventComplete}); err != nil {
		t.Fatal(err)
	}
	if err := NewJournal(nil).Append(Entry{Event: EventComplete}); err != nil {
		t.Fatal(err)
	}
}
