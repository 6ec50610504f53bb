package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the machine and build a result was measured on.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped at build time ("+modified" when
	// the tree had uncommitted changes), or "unknown" when the benchmark
	// was built outside a git checkout.
	Commit string `json:"commit"`
	// Source is run.sh's hash of go.mod and every .go file under
	// internal/ and perfbench/ (the build stamp), so two results from
	// unstamped builds still show whether they measured the same
	// program; "unknown" when the binary is run directly.
	Source string `json:"source_sha256"`
}

func hostInfo() host {
	h := host{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		vcs := map[string]string{}
		for _, s := range bi.Settings {
			vcs[s.Key] = s.Value
		}
		if rev := vcs["vcs.revision"]; rev != "" {
			h.Commit = rev
			if vcs["vcs.modified"] == "true" {
				h.Commit += "+modified"
			}
		}
	}
	h.Source = os.Getenv("PERFBENCH_SOURCE_SHA256")
	if h.Source == "" {
		h.Source = "unknown"
	}
	return h
}

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

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB, or 0 where /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssInterval is how often opPeakRSSMB samples the resident set.
const rssInterval = 5 * time.Millisecond

// opPeakRSSMB runs fn and returns the highest resident set, in MB, seen
// while it ran, sampled every rssInterval.
func opPeakRSSMB(fn func()) float64 {
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		max := rssMB()
		for {
			select {
			case <-t.C:
			case <-stop:
				peak <- math.Max(max, rssMB())
				return
			}
			max = math.Max(max, rssMB())
		}
	}()
	fn()
	close(stop)
	return <-peak
}

// rssMB is the process's current resident set in MB, or 0 where /proc is
// unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
