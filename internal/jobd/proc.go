package jobd

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// procStartTime returns pid's kernel start time (clock ticks since
// boot — /proc/<pid>/stat field 22). The (pid, start time) pair
// uniquely identifies a process incarnation: pids are recycled, start
// times within one boot are not, so a recovered daemon can tell "our
// orphan worker, still alive" from "an unrelated process that reused
// the pid". A zombie (state Z, or X while it is being reaped) has
// exited: it is reported as an error, not as a live incarnation. On
// hosts without procfs the error makes recovery treat the recorded
// worker as unverifiable (and therefore dead); it never guesses.
func procStartTime(pid int) (uint64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The comm field (2) is parenthesized and may itself contain spaces
	// or parentheses; everything after the *last* ')' is well-formed
	// space-separated fields starting at field 3 (state).
	i := bytes.LastIndexByte(data, ')')
	if i < 0 || i+2 >= len(data) {
		return 0, fmt.Errorf("jobd: malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(string(data[i+2:]))
	const startTimeField = 19 // field 22 overall; fields[0] is field 3
	if len(fields) <= startTimeField {
		return 0, fmt.Errorf("jobd: short /proc/%d/stat", pid)
	}
	if state := fields[0]; state == "Z" || state == "X" {
		return 0, fmt.Errorf("jobd: process %d has exited (state %s)", pid, state)
	}
	return strconv.ParseUint(fields[startTimeField], 10, 64)
}

// sameProcess reports whether pid is still the exact process
// incarnation recorded as (pid, start). A zero recorded start never
// matches — a record that predates start-time tracking must not adopt.
func sameProcess(pid int, start uint64) bool {
	if pid <= 0 || start == 0 {
		return false
	}
	ts, err := procStartTime(pid)
	return err == nil && ts == start
}
