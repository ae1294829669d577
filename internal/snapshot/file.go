// On-disk checkpoint format. A snapshot file is a fixed little-endian
// header followed by the gob-encoded Image payload:
//
//	offset  size  field
//	     0     8  magic "PTLSNAP\x01"
//	     8     4  format version (uint32)
//	    12     8  config-compatibility hash (uint64, 0 = unknown)
//	    20     8  payload length in bytes (uint64)
//	    28     4  CRC32 (IEEE) of the payload (uint32)
//	    32     —  payload (gob)
//
// Files are written atomically: the payload goes to a temp file in the
// destination directory, is fsynced, and is renamed into place, so a
// crash mid-write can never leave a half-written image under the final
// name — and if it somehow does (e.g. a torn sector), the CRC rejects
// it with a typed error the supervisor can treat as "slot unusable,
// fall back to the previous rotation".
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"

	"ptlsim/internal/core"
	"ptlsim/internal/selfcheck"
)

// Format constants.
const (
	// FormatVersion is bumped whenever the header layout or the gob
	// schema changes incompatibly.
	FormatVersion = 1
	headerSize    = 32
)

var magic = [8]byte{'P', 'T', 'L', 'S', 'N', 'A', 'P', 1}

// Typed sentinel errors for on-disk image validation. ReadFile and
// Restore wrap these so callers can classify failures with errors.Is —
// in particular the run supervisor, which treats ErrTruncated and
// ErrChecksum as "try the previous rotation slot" and ErrConfigMismatch
// as fatal operator error.
var (
	// ErrNotSnapshot: the file does not start with the snapshot magic.
	ErrNotSnapshot = errors.New("not a ptlsim snapshot file")
	// ErrVersion: the file uses an unsupported format version.
	ErrVersion = errors.New("unsupported snapshot format version")
	// ErrTruncated: the file is shorter than its header claims.
	ErrTruncated = errors.New("truncated snapshot file")
	// ErrChecksum: the payload CRC does not match the header.
	ErrChecksum = errors.New("snapshot payload checksum mismatch")
	// ErrConfigMismatch: the image was captured under a different
	// machine configuration than the one offered for restore.
	ErrConfigMismatch = errors.New("snapshot configuration mismatch")
)

// ConfigHash derives the compatibility hash of a machine configuration:
// restoring an image under a config with a different hash would build a
// machine whose geometry (core widths, cache shapes, thread mapping)
// silently disagrees with the one that captured it. The hash is FNV-64a
// over the config's printed form — stable across runs of the same
// build, and any field change (including nested core/cache/predictor
// parameters) changes it. Self-checking instrumentation is excluded:
// the oracle and auditor observe the machine without changing its
// geometry or timing, so a checkpoint captured with them off must
// restore with them on (and vice versa) — the triage path depends on
// restoring a failing run's slots under a stripped config. TimingSeed
// is excluded for the same reason: it perturbs only timing-state
// warm-up (predictors are not checkpointed; restored cores are cold),
// so it cannot change what a restored run computes.
func ConfigHash(cfg core.Config) uint64 {
	cfg.SelfCheck = selfcheck.Config{}
	cfg.TimingSeed = 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", cfg)
	return h.Sum64()
}

// WriteFile encodes the image into path atomically: temp file in the
// same directory, fsync, rename. The header carries the image's config
// hash so readers can check compatibility before decoding the payload.
func (img *Image) WriteFile(path string) error {
	payload, err := img.Encode()
	if err != nil {
		return err
	}
	hdr := header(payload, img.CfgHash)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// Persist the rename itself; failure here is not fatal to the data.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// header is the file header that parse accepts in front of payload.
func header(payload []byte, cfgHash uint64) [headerSize]byte {
	var hdr [headerSize]byte
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], cfgHash)
	binary.LittleEndian.PutUint64(hdr[20:28], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[28:32], crc32.ChecksumIEEE(payload))
	return hdr
}

// Info is what Inspect can tell about a checkpoint file without
// restoring a machine from it: the raw header fields, whether the
// payload survives its CRC, and — when it does decode — the captured
// machine's identity (cycle, mode, shape). Integrity problems land in
// Err instead of failing the inspection; triaging a rotated checkpoint
// directory after a killed worker means looking at broken files.
type Info struct {
	Path       string
	Size       int64
	Version    uint32
	CfgHash    uint64
	PayloadLen uint64
	CRC        uint32

	// Payload identity, valid when Err is empty.
	Cycle   uint64
	SimMode bool
	VCPUs   int
	Pages   int

	// Err is the first integrity problem hit (empty = intact).
	Err string
}

// Inspect reads a checkpoint file's header and validates as much as it
// can, stopping at the first problem: magic, version, claimed length,
// payload CRC, gob decode. The returned error is non-nil only when the
// file cannot be read at all; format problems are reported in Info.Err
// with every header field parsed so far still filled in.
func Inspect(path string) (Info, error) {
	info := Info{Path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		return info, fmt.Errorf("snapshot: %w", err)
	}
	payload, err := parse(data, &info)
	if err != nil {
		info.Err = err.Error()
		return info, nil
	}
	img, err := Decode(payload)
	if err != nil {
		info.Err = err.Error()
		return info, nil
	}
	info.Cycle = img.Cycle
	info.SimMode = img.SimMode
	info.VCPUs = len(img.VCPUs)
	info.Pages = len(img.Pages)
	if info.CfgHash == 0 {
		info.CfgHash = img.CfgHash
	}
	return info, nil
}

// ReadFile decodes an image from path, validating magic, version,
// length and payload CRC before touching the gob decoder, so a
// truncated or bit-rotted file surfaces as a typed error instead of an
// opaque decode failure.
func ReadFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var hdr Info
	payload, err := parse(data, &hdr)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", path, err)
	}
	img, err := Decode(payload)
	if err != nil {
		return nil, err
	}
	// Trust the payload's own hash over the header copy (they match for
	// files we wrote; the payload survives the CRC check either way).
	if img.CfgHash == 0 {
		img.CfgHash = hdr.CfgHash
	}
	return img, nil
}

// parse checks a checkpoint file's bytes up to the gob decoder, in the
// order they can fail: magic (a file shorter than the magic must be a
// prefix of it), header length, version, payload length, payload CRC.
// It fills in info's size and header fields as it reads them, and
// returns the payload as a subslice of data. Its error wraps one of the
// sentinels above.
func parse(data []byte, info *Info) ([]byte, error) {
	info.Size = int64(len(data))
	if n := min(len(data), len(magic)); !bytes.Equal(data[:n], magic[:n]) {
		return nil, ErrNotSnapshot
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("%d bytes: %w", len(data), ErrTruncated)
	}
	info.Version = binary.LittleEndian.Uint32(data[8:12])
	info.CfgHash = binary.LittleEndian.Uint64(data[12:20])
	info.PayloadLen = binary.LittleEndian.Uint64(data[20:28])
	info.CRC = binary.LittleEndian.Uint32(data[28:32])
	if info.Version != FormatVersion {
		return nil, fmt.Errorf("version %d (want %d): %w", info.Version, FormatVersion, ErrVersion)
	}
	payload := data[headerSize:]
	if uint64(len(payload)) != info.PayloadLen {
		return nil, fmt.Errorf("payload %d bytes, header claims %d: %w",
			len(payload), info.PayloadLen, ErrTruncated)
	}
	if crc32.ChecksumIEEE(payload) != info.CRC {
		return nil, ErrChecksum
	}
	return payload, nil
}
