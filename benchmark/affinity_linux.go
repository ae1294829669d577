package main

import (
	"fmt"
	"math/bits"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU set: room for 8192 CPUs, more than any kernel
// configuration this benchmark will meet.
type cpuMask [128]uint64

// allowedCPUs lists the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var mask cpuMask
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for w := 0; w < int(n)/8; w++ {
		for word := mask[w]; word != 0; word &= word - 1 {
			cpus = append(cpus, w*64+bits.TrailingZeros64(word))
		}
	}
	return cpus, nil
}

// pinThread restricts the calling thread to one CPU. A process started
// from this thread afterwards inherits the restriction, and so does
// everything that process starts.
func pinThread(cpu int) error {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(cpu %d): %w", cpu, errno)
	}
	return nil
}
