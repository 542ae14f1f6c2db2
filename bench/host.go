package main

import (
	"bufio"
	"context"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is the conditions block every report carries: a number is only
// comparable with another taken under the same conditions.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Timestamp  string `json:"timestamp"`
}

func readHostInfo(seed int64) hostInfo {
	return hostInfo{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
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

// gitCommit asks git for the checkout's commit; the driver's checkouts are
// not repositories, so "unknown" is an expected answer.
func gitCommit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuSeconds returns the process's user+system CPU time so far. It covers
// every thread, so GC workers and the program's helper goroutines count —
// the cost wall time hides when several cores are used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// calibrator is a fixed piece of work — an integer mix plus a pointer chase
// through 4 MiB — timed before every repetition. Its time has nothing to do
// with the program, so its level and spread say how fast and how steady the
// host was while the run was taken.
type calibrator struct {
	chain   []uint32
	samples []float64 // ns per spin
	sink    uint64
}

func newCalibrator() *calibrator {
	const n = 1 << 20
	perm := rand.New(rand.NewSource(1)).Perm(n)
	chain := make([]uint32, n)
	for i := range perm {
		chain[perm[i]] = uint32(perm[(i+1)%n])
	}
	return &calibrator{chain: chain}
}

// spin runs the fixed work once and records its duration.
func (c *calibrator) spin() {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p := uint32(0)
	for i := 0; i < 1<<20; i++ {
		p = c.chain[p]
	}
	c.sink += x + uint64(p)
	c.samples = append(c.samples, float64(time.Since(start).Nanoseconds()))
}

// gcCPUSeconds returns the cumulative CPU time the garbage collector has
// used, as the runtime estimates it.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
