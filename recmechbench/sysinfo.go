package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS restarts the kernel's resident-set high-water mark
// (VmHWM) at the current RSS, so the peak excludes input generation.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	return kb / 1024
}

// procField returns the first number after prefix on the line of path
// that starts with it, or 0.
func procField(path, prefix string) float64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				v, _ := strconv.ParseFloat(fields[0], 64)
				return v
			}
		}
	}
	return 0
}

// cpuModel names the host CPU from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks is the host-wide steal time from /proc/stat (the eighth
// field of the aggregate cpu line, in clock ticks): time the hypervisor
// ran someone else while this guest wanted the CPU.
func stealTicks() uint64 {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 8 && fields[0] == "cpu" {
			v, _ := strconv.ParseUint(fields[8], 10, 64)
			return v
		}
	}
	return 0
}
