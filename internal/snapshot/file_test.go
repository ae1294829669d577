package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// writeTestImage writes a minimal valid image and returns its path and
// bytes.
func writeTestImage(t *testing.T) (string, []byte) {
	t.Helper()
	img := &Image{Cycle: 42, CfgHash: 0xdeadbeef, VCPUs: []VCPUImage{{RIP: 0x1000}}}
	path := filepath.Join(t.TempDir(), "img.ckpt")
	if err := img.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestFileHeaderRoundTrip(t *testing.T) {
	path, _ := writeTestImage(t)
	img, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if img.Cycle != 42 || img.CfgHash != 0xdeadbeef || img.VCPUs[0].RIP != 0x1000 {
		t.Fatalf("round trip lost data: %+v", img)
	}
	// No temp files may be left behind by the atomic write.
	leftovers, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".ckpt-*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

func TestReadFileRejectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(data []byte) []byte
		wantErr error
	}{
		{"not a snapshot", func(d []byte) []byte {
			d[0] = 'X'
			return d
		}, ErrNotSnapshot},
		{"future version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], FormatVersion+1)
			return d
		}, ErrVersion},
		{"truncated payload", func(d []byte) []byte {
			return d[:len(d)-7]
		}, ErrTruncated},
		{"shorter than header", func(d []byte) []byte {
			return d[:12]
		}, ErrTruncated},
		{"payload bit rot", func(d []byte) []byte {
			d[len(d)-3] ^= 0x40
			return d
		}, ErrChecksum},
		{"garbage file", func(d []byte) []byte {
			return []byte("definitely not a checkpoint")
		}, ErrNotSnapshot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, data := writeTestImage(t)
			if err := os.WriteFile(path, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadFile(path)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestInspect: header triage of intact and damaged checkpoint files —
// Inspect must never need a restorable machine, and must keep reporting
// the parsed header fields past the first integrity problem.
func TestInspect(t *testing.T) {
	path, data := writeTestImage(t)

	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Err != "" {
		t.Fatalf("intact file reported %q", info.Err)
	}
	if info.Version != FormatVersion || info.CfgHash != 0xdeadbeef ||
		info.Cycle != 42 || info.VCPUs != 1 || info.Pages != 0 {
		t.Fatalf("inspect lost fields: %+v", info)
	}
	if info.PayloadLen == 0 || info.Size != int64(headerSize)+int64(info.PayloadLen) {
		t.Fatalf("size accounting wrong: %+v", info)
	}

	// Bit-rotted payload: header fields survive, Err says checksum.
	rot := append([]byte(nil), data...)
	rot[len(rot)-3] ^= 0x40
	if err := os.WriteFile(path, rot, 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Err, "checksum") {
		t.Fatalf("Err = %q, want checksum", info.Err)
	}
	if info.Version != FormatVersion || info.CfgHash != 0xdeadbeef || info.Cycle != 0 {
		t.Fatalf("header fields should survive a bad payload (and no payload fields leak): %+v", info)
	}

	// Truncated below the header: only the magic is knowable.
	if err := os.WriteFile(path, data[:12], 0o644); err != nil {
		t.Fatal(err)
	}
	info, _ = Inspect(path)
	if !strings.Contains(info.Err, "truncated") {
		t.Fatalf("Err = %q, want truncated", info.Err)
	}

	// Not a snapshot at all.
	if err := os.WriteFile(path, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, _ = Inspect(path)
	if !strings.Contains(info.Err, "not a ptlsim snapshot") {
		t.Fatalf("Err = %q, want not-a-snapshot", info.Err)
	}

	// Missing file: the one case that is a real error.
	if _, err := Inspect(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestRestoreConfigMismatch: an image captured under one machine
// configuration must refuse to restore under another, with a typed,
// explanatory error — not build a machine with silently wrong geometry.
func TestRestoreConfigMismatch(t *testing.T) {
	m := buildBench(t)
	if err := m.RunUntilInsns(500, 0); err != nil {
		t.Fatal(err)
	}
	img := Capture(m)
	if img.CfgHash == 0 || img.CfgHash != ConfigHash(m.Config()) {
		t.Fatalf("capture should stamp the config hash: %#x", img.CfgHash)
	}

	other := benchConfig()
	other.Core.ROBSize *= 2
	if _, err := Restore(img, other); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("restore under changed config: err = %v, want ErrConfigMismatch", err)
	}
	if _, err := Restore(img, m.Config()); err != nil {
		t.Fatalf("restore under matching config: %v", err)
	}

	// The mismatch also surfaces through the file path (-restore).
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := img.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Restore(loaded, other)
	if !errors.Is(err, ErrConfigMismatch) || !strings.Contains(err.Error(), "geometry") {
		t.Fatalf("file restore under changed config: %v", err)
	}
}

func TestConfigHashStability(t *testing.T) {
	a, b := benchConfig(), benchConfig()
	if ConfigHash(a) != ConfigHash(b) {
		t.Fatal("identical configs must hash identically")
	}
	b.Core.FetchWidth++
	if ConfigHash(a) == ConfigHash(b) {
		t.Fatal("a nested core parameter change must change the hash")
	}
	c := benchConfig()
	c.WatchdogCycles = 12345
	if ConfigHash(a) == ConfigHash(c) {
		t.Fatal("a top-level field change must change the hash")
	}
}

// TestWriteFileOverwritesAtomically: rewriting an existing slot leaves
// either the old or the new image, never a blend — modeled here by the
// rename-over semantics reading back the new content intact.
func TestWriteFileOverwritesAtomically(t *testing.T) {
	path, _ := writeTestImage(t)
	img2 := &Image{Cycle: 1000, VCPUs: []VCPUImage{{RIP: 0x2000}}}
	if err := img2.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycle != 1000 || got.VCPUs[0].RIP != 0x2000 {
		t.Fatalf("overwrite lost data: %+v", got)
	}
}

// FuzzReadFile feeds ReadFile and Inspect arbitrary files. Neither may
// panic, and they must agree: Inspect reports no problem exactly when
// ReadFile returns an image. With wrap set the input is the payload
// behind a valid header, so mutations reach the gob decoder instead of
// stopping at the CRC.
func FuzzReadFile(f *testing.F) {
	payload, err := (&Image{Cycle: 42, CfgHash: 0xdeadbeef, VCPUs: []VCPUImage{{RIP: 0x1000}}}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	hdr := header(payload, 0xdeadbeef)
	valid := append(hdr[:], payload...)
	mutated := func(mutate func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		mutate(d)
		return d
	}
	f.Add(valid, false)
	f.Add(valid[:len(valid)-7], false)
	f.Add(mutated(func(d []byte) { d[0] = 'X' }), false)
	f.Add(mutated(func(d []byte) { binary.LittleEndian.PutUint32(d[8:12], FormatVersion+1) }), false)
	f.Add(mutated(func(d []byte) { d[len(d)-3] ^= 0x40 }), false)
	f.Add(payload, true)
	f.Fuzz(func(t *testing.T, data []byte, wrap bool) {
		if wrap {
			hdr := header(data, 0)
			data = append(hdr[:], data...)
		}
		path := filepath.Join(t.TempDir(), "f.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		img, rerr := ReadFile(path)
		info, ierr := Inspect(path)
		if ierr != nil {
			t.Fatal(ierr)
		}
		if (rerr == nil) != (info.Err == "") {
			t.Fatalf("ReadFile err = %v, Inspect Err = %q", rerr, info.Err)
		}
		if rerr == nil && (info.Cycle != img.Cycle || info.VCPUs != len(img.VCPUs)) {
			t.Fatalf("Inspect %+v disagrees with the image ReadFile decoded", info)
		}
	})
}

// TestDecodeDoesNotTrustMapCount: a payload whose statistics map claims
// 2^20 entries but holds one must fail to decode without allocating for
// the claim (FuzzReadFile's wrapped inputs exhausted memory that way).
func TestDecodeDoesNotTrustMapCount(t *testing.T) {
	payload, err := (&Image{Stats: map[string]int64{"a": 1}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The payload is a sequence of length-prefixed gob messages; the
	// last one is the image. Its map is count 1, key "a", value 1.
	// A gob uint below 0x80 is one byte; otherwise the byte is minus the
	// count of big-endian bytes that follow.
	var start, n int
	for pos := 0; pos < len(payload); pos += n {
		v, w := int(payload[pos]), 0
		if v >= 0x80 {
			v, w = 0, int(-int8(payload[pos]))
			for _, c := range payload[pos+1 : pos+1+w] {
				v = v<<8 | int(c)
			}
		}
		start, n = pos, 1+w+v
	}
	if payload[start] >= 0x80 {
		t.Fatalf("image message longer than 127 bytes")
	}
	msg := payload[start+1:]
	i := bytes.Index(msg, []byte{1, 1, 'a', 2})
	if i < 0 {
		t.Fatalf("no map entry in %x", msg)
	}
	// 0xFD: a three-byte big-endian count follows.
	msg = append(append(append([]byte{}, msg[:i]...), 0xFD, 0x10, 0, 0), msg[i+1:]...)
	if len(msg) >= 0x80 {
		t.Fatalf("patched message %d bytes", len(msg))
	}
	bad := append(append(append([]byte{}, payload[:start]...), byte(len(msg))), msg...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Decode(bad); err == nil {
		t.Fatal("decoded a map that claims 2^20 entries and holds one")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("decode allocated %d bytes for a %d-byte payload", grew, len(bad))
	}
}
