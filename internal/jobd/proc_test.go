package jobd

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestZombieIsNotSameProcess: a child that has exited but is not yet
// reaped still has a /proc entry with its start time. It is dead, so
// it must not match its recorded incarnation.
func TestZombieIsNotSameProcess(t *testing.T) {
	cmd := exec.Command("cat")
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Wait()
	pid := cmd.Process.Pid
	start, err := procStartTime(pid)
	if err != nil {
		cmd.Process.Kill()
		t.Skipf("no procfs start time: %v", err)
	}
	if !sameProcess(pid, start) {
		t.Fatal("a live child does not match its own incarnation")
	}

	stdin.Close() // cat exits; nothing waits for it yet
	stat := fmt.Sprintf("/proc/%d/stat", pid)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		data, err := os.ReadFile(stat)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.LastIndexByte(data, ')'); i >= 0 && bytes.HasPrefix(data[i:], []byte(") Z")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never became a zombie: %s", data)
		}
	}
	if sameProcess(pid, start) {
		t.Fatal("an exited, unreaped child still matches its incarnation")
	}
}
