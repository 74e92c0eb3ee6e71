package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// pin sets the CPU affinity of every thread of process pid to cpus.
// Threads created later inherit the mask of the thread that creates
// them, so a second pass catches any thread born during the first.
//
// On a 2-core host the generator and stmkvd share the cores. Pinning
// the generator to the last core and leaving the daemon all of them cut
// the run-to-run spread (interquartile range over median, four- and
// five-run samples on kv-read) of the fixed-rate p99 from several times
// the median to about a third, and of closed-loop throughput from 18% to
// 7%.
func pin(pid int, cpus []int) error {
	var mask [16]uint64 // room for 1024 CPUs
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/" + strconv.Itoa(pid) + "/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if e != 0 && e != syscall.ESRCH { // ESRCH: the thread exited
				return fmt.Errorf("sched_setaffinity %d: %w", tid, e)
			}
		}
	}
	return nil
}

// cpuRange returns [lo, hi).
func cpuRange(lo, hi int) []int {
	var cs []int
	for c := lo; c < hi; c++ {
		cs = append(cs, c)
	}
	return cs
}

// cpuTimes reads the host-wide CPU counters of /proc/stat: the steal
// time the hypervisor gave other guests, and the total.
func cpuTimes() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
