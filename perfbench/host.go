package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host fingerprints the machine and build a result was measured on.
// Results from different fingerprints are not comparable: the benchmark
// measures the code on one host, never against another host's numbers.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Revision   string `json:"revision"`
	Dirty      bool   `json:"dirty"`
}

// fingerprint collects the host identity. The revision comes from the
// build's VCS stamp; a tree built outside a git checkout reports
// "unknown".
func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Dirty = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" off
// Linux or when the field is absent).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rusage is the process's CPU time.
type rusage struct {
	cpu time.Duration // user + system
	sys time.Duration // system alone
}

func readRusage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rusage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return rusage{cpu: tv(ru.Utime) + tv(ru.Stime), sys: tv(ru.Stime)}
}

// resetPeakRSS collects the garbage, returns the freed memory to the
// system and resets the kernel's peak resident set (VmHWM) to the
// current one, so that a later peakRSS covers only what runs after it.
// It reports false where the peak cannot be reset (off Linux).
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSS returns the process's peak resident set in bytes: VmHWM, or
// the lifetime ru_maxrss where /proc is not there.
func peakRSS() int64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb int64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%d kB", &kb); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss) * 1024 // Linux reports ru_maxrss in KiB
}

// cpuTicks is the machine's CPU time so far from the first line of
// /proc/stat, in clock ticks: the total and the part stolen by the
// hypervisor (time a virtual CPU was ready but another guest ran).
type cpuTicks struct{ total, steal int64 }

func readCPUTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return parseCPUTicks(line)
}

// parseCPUTicks reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, then guest and guest_nice.
func parseCPUTicks(line string) (cpuTicks, bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user.
		if i < 8 {
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, true
}

// stealFrac is the share of the machine's CPU time stolen between a and
// b. On a shared virtual machine the same code loses throughput as it
// rises.
func stealFrac(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
