package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// conditions are the run conditions recorded with every result: a number is
// only comparable with one measured under the same ones.
type conditions struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Revision    string  `json:"vcs_revision,omitempty"`
	DataFS      string  `json:"data_fs"`
	StealShare  float64 `json:"host_cpu_steal_share"`
	RunSeconds  float64 `json:"run_seconds"`
	StartedUnix int64   `json:"started_unix"`
	// Diagnostics are an untraced run's figures too unsteady to gate on
	// (throughput on unstolen time, latency, set-up wall time, all and
	// process CPU per operation, peak RSS): recorded for reading.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
}

func (c conditions) String() string {
	rev := c.Revision
	if rev == "" {
		rev = "unstamped"
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s rev=%s data_fs=%s host.cpu_steal_share=%.4f",
		c.NProc, c.GOMAXPROCS, c.GoVersion, rev, c.DataFS, c.StealShare)
}

func hostConditions(dataDir string, seconds float64) conditions {
	return conditions{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Revision:    vcsRevision(),
		DataFS:      fsType(dataDir),
		RunSeconds:  seconds,
		StartedUnix: time.Now().Unix(),
	}
}

// vcsRevision is the commit the binary was built from, when the build
// stamped one.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

// userHz is the unit of /proc/stat: clock ticks per second (USER_HZ, 100 on
// every Linux architecture Go supports).
const userHz = 100

// cpuSample is the machine's CPU account at one instant, from the first line
// of /proc/stat, in seconds summed over all CPUs: time spent running (user,
// nice, system, irq, softirq), time the hypervisor stole, and everything
// including idle and iowait. It also carries this process's own user+system
// time from getrusage.
//
// The kernel charges a tick in which the hypervisor ran another guest to
// steal, not to the task it interrupted, so busy time is the CPU time work
// really got. A process's getrusage time is not: on a shared VM it grows
// with the steal the process suffers (a fixed loop measured 0.66–0.86 s of
// process time against 0.65–0.69 s of busy time while steal varied).
type cpuSample struct {
	busy, steal, total float64
	user, system       float64 // the user+nice and system parts of busy
	proc               float64
	ok                 bool // /proc/stat was readable
}

func readCPU() cpuSample {
	s := cpuSample{proc: processCPU()}
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return s
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return s
		}
		t := float64(v) / userHz
		// Fields: user nice system idle iowait irq softirq steal; guest time
		// (fields 9 and 10) is already counted in user and nice.
		switch i {
		case 3, 4:
		case 7:
			s.steal = t
		default:
			s.busy += t
		}
		switch i {
		case 0, 1:
			s.user += t
		case 2:
			s.system += t
		}
		s.total += t
	}
	s.ok = true
	return s
}

// cpuDelta is what the machine and the process did between two samples.
type cpuDelta struct {
	busy, steal, total float64
	user, system       float64
	proc               float64
	ok                 bool
}

func (a cpuSample) to(b cpuSample) cpuDelta {
	return cpuDelta{
		busy: b.busy - a.busy, steal: b.steal - a.steal, total: b.total - a.total,
		user: b.user - a.user, system: b.system - a.system,
		proc: b.proc - a.proc, ok: a.ok && b.ok,
	}
}

func (d cpuDelta) add(e cpuDelta) cpuDelta {
	return cpuDelta{
		busy: d.busy + e.busy, steal: d.steal + e.steal, total: d.total + e.total,
		user: d.user + e.user, system: d.system + e.system,
		proc: d.proc + e.proc, ok: d.ok && e.ok,
	}
}

// work is the CPU time spent between the samples: the machine's busy time
// where /proc/stat is readable, else the process's own.
func (d cpuDelta) work() float64 {
	if d.ok {
		return d.busy
	}
	return d.proc
}

// userWork is the user part of work, or all of the process's own CPU time
// where /proc/stat is unreadable.
func (d cpuDelta) userWork() float64 {
	if d.ok {
		return d.user
	}
	return d.proc
}

// stealShare is the share of all machine CPU time the hypervisor stole.
func (d cpuDelta) stealShare() float64 {
	if d.total <= 0 {
		return 0
	}
	return d.steal / d.total
}

// unstolen is wall time d less the hypervisor's steal per CPU over it: what
// the interval would have lasted had the guest kept every CPU it wanted,
// assuming its work was spread over all of them. For the pool workloads,
// whose callers keep every CPU busy, that holds; for the served ones, which
// spend part of their time waiting on the disk, it is an upper bound on the
// speed-up. An interval must span many ticks for the correction to mean
// anything.
func (d cpuDelta) unstolen(wall time.Duration) time.Duration {
	u := wall - time.Duration(d.steal/float64(runtime.NumCPU())*float64(time.Second))
	return max(u, wall/10)
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// residentMB is the process's resident set size now, from /proc/self/statm.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssEvery is how often a round samples the resident set size.
const rssEvery = 10 * time.Millisecond

// sampleRSS samples the resident set size every rssEvery until the returned
// function is called; that stops the sampling and returns the samples, in MB.
func sampleRSS() func() []float64 {
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var mb []float64
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if v, err := residentMB(); err == nil {
				mb = append(mb, v)
			}
			select {
			case <-stop:
				done <- mb
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(stop)
		return <-done
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x2FC12FC1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// goStats samples the Go runtime counters the traced run reports per
// operation: bytes allocated and CPU spent in the garbage collector.
type goStats struct{ allocBytes, gcCPU float64 }

var goStatNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	return g
}
