package main

import (
	"fmt"
	"io"
	"os"

	"ptlsim/internal/supervisor"
)

// reportJournal summarizes a supervisor run journal (the JSONL file
// written by ptlsim -supervise -journal): attempt history, failures by
// kind, restore and rotation-discard counts, degraded windows,
// self-check and triage verdicts, and the run outcome. tail > 0
// additionally prints the last tail raw events. The rendering lives in
// supervisor.WriteReport.
func reportJournal(w io.Writer, path string, tail int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, skipped, err := supervisor.ReadJournalSkipping(f)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(w, "warning: skipped %d torn journal line(s)\n", skipped)
	}
	supervisor.WriteReport(w, entries, tail)
	return nil
}
