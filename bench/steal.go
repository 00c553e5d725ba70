package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat in clock ticks.
type cpuTimes struct {
	steal, busy float64 // busy: everything but idle and iowait, steal included
	ok          bool
}

// readCPUTimes reads /proc/stat. Where the file is absent (darwin) or
// unreadable the result is not ok and every steal share is unknown —
// never an error.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	return parseCPUTimes(string(b))
}

// parseCPUTimes parses the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal guest guest_nice.
// Guest time is already inside user, so the sum stops at steal.
func parseCPUTimes(stat string) cpuTimes {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return cpuTimes{}
		}
		if i != 3 && i != 4 { // idle, iowait
			t.busy += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealShare is the stolen share of the CPU time the box asked for
// between two readings — idle time left out, because the benchmark keeps
// one core busy and the others' idling would halve the share — and -1
// when unknown.
func stealShare(before, after cpuTimes) float64 {
	if !before.ok || !after.ok || after.busy <= before.busy {
		return -1
	}
	return (after.steal - before.steal) / (after.busy - before.busy)
}
