package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of the utime and stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture Go
// supports, whatever the kernel's internal HZ.
const clockTicks = 100

// parseProcStat extracts utime and stime (in clock ticks) from the
// contents of /proc/<pid>/stat. The command name is parenthesized and
// may itself contain spaces and parentheses, so fields are counted from
// the last ')'.
func parseProcStat(data []byte) (utime, stime uint64, err error) {
	end := bytes.LastIndexByte(data, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command name")
	}
	// Fields after the name start at field 3 (state); utime and stime
	// are fields 14 and 15.
	fields := bytes.Fields(data[end+1:])
	if len(fields) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the name, want at least 13", len(fields))
	}
	if utime, err = strconv.ParseUint(string(fields[11]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(string(fields[12]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseVmHWM extracts the peak resident set size in KiB from the
// contents of /proc/<pid>/status.
func parseVmHWM(data []byte) (int64, error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		rest, found := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !found {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU returns the CPU time process pid has consumed: the sum of its
// threads' on-CPU nanoseconds from /proc/<pid>/task/*/schedstat, or
// where schedstat is missing, utime+stime from /proc/<pid>/stat in
// 10 ms ticks.
func procCPU(pid int) (time.Duration, error) {
	if d, err := schedstatCPU(pid); err == nil {
		return d, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := parseProcStat(data)
	if err != nil {
		return 0, err
	}
	return time.Duration(u+s) * time.Second / clockTicks, nil
}

// schedstatCPU sums the on-CPU time of process pid's threads.
func schedstatCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		ns, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// parseSchedstat returns the on-CPU time, the first field of a
// schedstat line.
func parseSchedstat(data []byte) (time.Duration, error) {
	f := bytes.Fields(data)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseInt(string(f[0]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// hostCPU is a reading of /proc/stat in clock ticks: the guest's vCPUs'
// summed time running (busy), waiting while the hypervisor ran other
// guests (steal), and in every state (all), and the number of vCPUs.
type hostCPU struct {
	busy, steal, all uint64
	cpus             int
}

// parseHostStat reads the aggregate "cpu" line of /proc/stat and counts
// the "cpuN" lines. Busy is user+nice+system+irq+softirq; all adds
// idle, iowait and steal.
func parseHostStat(data []byte) (hostCPU, error) {
	var h hostCPU
	aggregate := false
	for _, line := range bytes.Split(data, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) == 0 || !bytes.HasPrefix(f[0], []byte("cpu")) {
			continue
		}
		if len(f[0]) > 3 {
			h.cpus++
			continue
		}
		if len(f) < 9 {
			return hostCPU{}, fmt.Errorf("proc stat: cpu line has no steal field")
		}
		var v [8]uint64
		for i := range v {
			x, err := strconv.ParseUint(string(f[i+1]), 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("proc stat: %w", err)
			}
			v[i] = x
			h.all += x
		}
		h.busy, h.steal = v[0]+v[1]+v[2]+v[5]+v[6], v[7]
		aggregate = true
	}
	if !aggregate || h.cpus == 0 {
		return hostCPU{}, fmt.Errorf("proc stat: no aggregate and per-cpu lines")
	}
	return h, nil
}

// readHostCPU reads /proc/stat; a zero reading means unavailable.
func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	h, _ := parseHostStat(data)
	return h
}

// lostIn is the time, in clock ticks, that the hypervisor took from the
// work between two close readings. If the vCPUs wanted to run (busy +
// steal) for at most the interval's length, the work ran on one vCPU at
// a time, and every stolen tick delayed it. If they wanted more, the
// work ran in parallel, and it lost the stolen share of the interval.
// Idle time adds to neither the steal nor the wanted time, so a wait
// is never discounted in an interval of serial work. It is discounted
// only inside an interval of parallel work, and by at most the stolen
// share; short intervals keep such mixing small.
func lostIn(a, b hostCPU) float64 {
	if b.cpus == 0 || b.all <= a.all || b.busy < a.busy || b.steal < a.steal {
		return 0
	}
	span := float64(b.all-a.all) / float64(b.cpus)
	steal := float64(b.steal - a.steal)
	if want := float64(b.busy-a.busy) + steal; want > span {
		return steal * span / want
	}
	return steal
}

// stealClock accumulates the time stolen from the work (see lostIn)
// over intervals of one period each. A whole-window reading would mix
// the work's serial, parallel and idle phases into one interval.
type stealClock struct {
	mu   sync.Mutex
	prev hostCPU
	lost float64 // clock ticks
	stop chan struct{}
	done chan struct{}
}

// stealPeriod is the stealClock's interval: two clock ticks per vCPU.
const stealPeriod = 20 * time.Millisecond

// startStealClock starts a clock reading /proc/stat every period.
func startStealClock(period time.Duration) *stealClock {
	c := &stealClock{prev: readHostCPU(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.read()
			}
		}
	}()
	return c
}

// read closes the current interval and returns the time stolen since
// the clock started.
func (c *stealClock) read() time.Duration {
	h := readHostCPU()
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.cpus > 0 {
		c.lost += lostIn(c.prev, h)
		c.prev = h
	}
	return time.Duration(c.lost * float64(time.Second) / clockTicks)
}

// close stops the clock and waits for its goroutine to end.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// unstolen is a wall-clock interval d less the time lost to steal in
// it. On a shared VM steal moved from one run to the next by tens of
// percent, and every wall-clock rate moved with the neighbours' load
// rather than with the program.
func unstolen(d, lost time.Duration) time.Duration {
	if lost < d {
		return d - lost
	}
	return d // tick rounding on a very short interval; leave it as is
}

// procPeakRSSMB returns the peak resident set size of process pid in MiB
// ("self" reads the calling process).
func procPeakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(data)
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// rusageCPU returns the user+system CPU time recorded in ru.
func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfCPU returns the user+system CPU time of the calling process.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return rusageCPU(&ru), nil
}

// fsMagic names the filesystems a state directory is likely to sit on,
// by statfs f_type.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x01021997: "9p",
	0x2FC12FC1: "zfs",
	0x6a656a63: "virtiofs",
	0x65735546: "fuse",
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// tally counts attempted ops and failures, keeping the first few
// failure messages for the diagnostics.
type tally struct {
	attempted int
	failed    int
	first     []string
}

// ok records a successful op.
func (t *tally) ok() { t.attempted++ }

// fail records a failed op (a refused request, an error, or a failed
// output check all count).
func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if len(t.first) < 5 {
		t.first = append(t.first, err.Error())
	}
}

// check records a result check made outside any op: it adds one
// attempt, and one failure when err is non-nil.
func (t *tally) check(err error) {
	if err != nil {
		t.fail(err)
		return
	}
	t.ok()
}

// expect records a result check made outside any op that passed when
// ok holds, and failed with the formatted message otherwise. It returns
// ok.
func (t *tally) expect(ok bool, format string, args ...any) bool {
	if ok {
		t.ok()
	} else {
		t.fail(fmt.Errorf(format, args...))
	}
	return ok
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, m := range o.first {
		if len(t.first) < 5 {
			t.first = append(t.first, m)
		}
	}
}

// failFrac is failed ÷ attempted (0 when nothing was attempted).
func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
