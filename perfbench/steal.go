package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTicks reads the machine-wide CPU counters of /proc/stat: the ticks
// the hypervisor gave to other guests while this machine's virtual CPUs
// wanted to run (steal), and all ticks. ok is false where the file or the
// steal column is missing.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare is the share of CPU ticks stolen between two readings.
func stealShare(s0, t0, s1, t1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}
