package supervisor

import (
	"bytes"
	"testing"
)

// FuzzReadJournal: the journal reader takes whatever a crashed writer
// left — torn, doubled or foreign lines — without panicking, and accounts
// for every non-empty line as either parsed or skipped.
func FuzzReadJournal(f *testing.F) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Append(Entry{Event: EventReject, Kind: "queue-full", Tenant: "greedy"})
	j.Append(Entry{Event: EventFailure, Job: "0007", Kind: "store", Message: "done record: file already closed"})
	j.Append(Entry{Event: EventDrain, Message: "complete"})
	good := buf.Bytes()
	lines := bytes.SplitAfter(good, []byte("\n"))
	f.Add(good)
	f.Add(good[:len(good)-9])                                                         // torn final line
	f.Add(bytes.Join([][]byte{lines[0], lines[1][:15], []byte("\n"), lines[2]}, nil)) // torn middle line
	f.Add(append(append([]byte(nil), good...), good...))                              // every entry twice
	f.Add(bytes.Join([][]byte{lines[2], lines[0], lines[1]}, nil))                    // reordered
	f.Add([]byte("\n\r\n{}\nnull\n\x00\x00garbage\n{\"event\":7}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, skipped, err := ReadJournalSkipping(bytes.NewReader(data))
		if err != nil {
			return // a line past the scanner's limit
		}
		nonEmpty := 0
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 {
				nonEmpty++
			}
		}
		if len(entries)+skipped != nonEmpty {
			t.Fatalf("%d parsed + %d skipped, but %d non-empty line(s) in %q",
				len(entries), skipped, nonEmpty, data)
		}
	})
}
