package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ptlsim/internal/jobd"
	"ptlsim/internal/snapshot"
)

// inspectPath prints the hardened snapshot header (magic/version/
// config-hash/CRC, cycle) of a checkpoint file without restoring a
// machine from it. Given a directory — typically the rotated
// checkpoint directory a killed worker left behind — it inspects every
// *.ckpt slot, newest name first, so the triage question "which slot
// is intact and how far did it get?" is one command. Given a ptlserve
// data directory (one holding a durable job store), it instead renders
// the recovered store state: every job's status as the daemon's API
// reports it, plus its newest intact checkpoint slot.
func inspectPath(w io.Writer, path string) error {
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if !st.IsDir() {
		return inspectFile(w, path)
	}
	if jobd.StoreExists(path) {
		return inspectStore(w, path)
	}
	slots, err := filepath.Glob(filepath.Join(path, "*.ckpt"))
	if err != nil {
		return err
	}
	if len(slots) == 0 {
		fmt.Fprintf(w, "%s: no *.ckpt files\n", path)
		return nil
	}
	sort.Sort(sort.Reverse(sort.StringSlice(slots)))
	for _, slot := range slots {
		if err := inspectFile(w, slot); err != nil {
			return err
		}
	}
	return nil
}

// inspectStore renders a ptlserve daemon data directory from its
// durable job store — the same replay the daemon performs on boot, but
// read-only: torn log lines are skipped with a warning, and each job's
// status, the one GET /jobs/{id} serves, is printed with the newest
// intact checkpoint slot a respawn would resume from.
func inspectStore(w io.Writer, dir string) error {
	jobs, skipped, err := jobd.ReadJobStore(dir)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(w, "%s: warning: skipped %d torn store log line(s)\n", dir, skipped)
	}
	fmt.Fprintf(w, "%s: job store, %d job(s)\n", dir, len(jobs))
	return writeJobTable(w, jobs, func(st jobd.Status) string {
		slot, cycle, ok := newestIntactSlot(filepath.Join(st.Dir, "ckpt"))
		if !ok {
			return "no intact ckpt"
		}
		return fmt.Sprintf("%s (cycle %d)", slot, cycle)
	})
}

// newestIntactSlot scans a rotated checkpoint directory newest name
// first and returns the first slot whose hardened header verifies.
func newestIntactSlot(ckptDir string) (slot string, cycle uint64, ok bool) {
	slots, err := filepath.Glob(filepath.Join(ckptDir, "*.ckpt"))
	if err != nil || len(slots) == 0 {
		return "", 0, false
	}
	sort.Sort(sort.Reverse(sort.StringSlice(slots)))
	for _, s := range slots {
		info, err := snapshot.Inspect(s)
		if err != nil || info.Err != "" {
			continue
		}
		return filepath.Base(s), info.Cycle, true
	}
	return "", 0, false
}

func inspectFile(w io.Writer, path string) error {
	info, err := snapshot.Inspect(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %d bytes", info.Path, info.Size)
	if info.Version > 0 {
		fmt.Fprintf(w, ", v%d, cfg %#x, payload %dB, crc %#08x",
			info.Version, info.CfgHash, info.PayloadLen, info.CRC)
	}
	if info.Err != "" {
		fmt.Fprintf(w, "\n  CORRUPT: %s\n", info.Err)
		return nil
	}
	mode := "native"
	if info.SimMode {
		mode = "sim"
	}
	fmt.Fprintf(w, "\n  intact: cycle %d, mode %s, %d vcpu(s), %d page(s)\n",
		info.Cycle, mode, info.VCPUs, info.Pages)
	return nil
}
