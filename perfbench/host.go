package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// Fingerprint identifies the machine a result was measured on.
type Fingerprint struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Kernel     string  `json:"kernel"`
	StealShare float64 `json:"steal_share"`
}

// cpuTimes is one /proc/stat aggregate "cpu" line, in clock ticks.
type cpuTimes struct{ total, steal uint64 }

// readCPUTimes reads the host-wide CPU counters; zero when unavailable.
func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTimes
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already inside user, so it is not added again.
		for i := 1; i <= 8; i++ {
			v, _ := strconv.ParseUint(fields[i], 10, 64)
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t
	}
	return cpuTimes{}
}

// stealShare is the share of host CPU time stolen by the hypervisor
// between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// fingerprint describes this host; steal is filled in by the caller.
func fingerprint() Fingerprint {
	fp := Fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		Kernel:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(raw))
	}
	return fp
}

// procCPUTicks returns a process's user+system CPU time in clock ticks.
func procCPUTicks(pid int) (uint64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is state (stat field 3); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(fields[11], 10, 64)
	st, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu times in /proc/%d/stat", pid)
	}
	return ut + st, nil
}

// clockTicksPerSecond is USER_HZ, 100 on every Linux ABI Go supports.
const clockTicksPerSecond = 100

// procPeakRSSBytes returns a process's peak resident set size (VmHWM),
// steadier than the current RSS, which follows the Go heap's GC cycle.
func procPeakRSSBytes(pid int) (uint64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseUint(f[0], 10, 64)
				return kb * 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// udpSocket is one /proc/net/udp row.
type udpSocket struct {
	port  int
	inode uint64
	drops uint64
}

// readUDPSockets lists the host's IPv4 UDP sockets.
func readUDPSockets() ([]udpSocket, error) {
	raw, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		return nil, err
	}
	var out []udpSocket
	for _, line := range strings.Split(string(raw), "\n")[1:] {
		f := strings.Fields(line)
		// sl local rem st tx:rx tr:when retrnsmt uid timeout inode ref ptr drops
		if len(f) < 13 {
			continue
		}
		_, portHex, ok := strings.Cut(f[1], ":")
		if !ok {
			continue
		}
		port, err1 := strconv.ParseUint(portHex, 16, 16)
		inode, err2 := strconv.ParseUint(f[9], 10, 64)
		drops, err3 := strconv.ParseUint(f[12], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		out = append(out, udpSocket{port: int(port), inode: inode, drops: drops})
	}
	return out, nil
}

// socketInodes returns the inodes of a process's open sockets.
func socketInodes(pid int) (map[uint64]bool, error) {
	dir := fmt.Sprintf("/proc/%d/fd", pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]bool)
	for _, e := range ents {
		link, err := os.Readlink(dir + "/" + e.Name())
		if err != nil {
			continue
		}
		if rest, ok := strings.CutPrefix(link, "socket:["); ok {
			if ino, err := strconv.ParseUint(strings.TrimSuffix(rest, "]"), 10, 64); err == nil {
				out[ino] = true
			}
		}
	}
	return out, nil
}

// udpDrops sums the kernel receive drops of the UDP sockets on ports.
func udpDrops(ports ...int) (uint64, error) {
	socks, err := readUDPSockets()
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range socks {
		for _, p := range ports {
			if s.port == p {
				n += s.drops
			}
		}
	}
	return n, nil
}

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// startOnCPU starts cmd with every thread it will ever have bound to cpu:
// the child inherits the affinity of the thread that forks it, so that
// thread is bound for the duration of the fork.
func startOnCPU(cmd *exec.Cmd, cpu int) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, maskOf(cpu)); err != nil {
		return err
	}
	defer setAffinity(0, old) //nolint:errcheck // restoring the mask just read
	return cmd.Start()
}

// bindProcess binds every thread of this process to cpu; threads created
// later inherit the binding. It returns a function that gives every
// thread the process's previous mask back.
func bindProcess(cpu int) (restore func(), err error) {
	old, err := getAffinity(0)
	if err != nil {
		return nil, err
	}
	if err := setAllThreads(maskOf(cpu)); err != nil {
		setAllThreads(old) //nolint:errcheck // best effort on the way out
		return nil, err
	}
	return func() { setAllThreads(old) }, nil //nolint:errcheck // threads may exit meanwhile
}

// setAllThreads sets the affinity of every thread of this process.
func setAllThreads(m cpuMask) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := setAffinity(tid, m); err != nil && err != syscall.ESRCH {
			return err
		}
	}
	return nil
}

// The wire workload's two CPUs, read once at start-up, before any binding.
var genCPU, gwCPU, haveWireCPUs = wireCPUs()

// wireCPUs picks two CPUs this process may run on: one for the load
// generator and one for the daemon. ok is false with fewer than two.
func wireCPUs() (gen, gw int, ok bool) {
	m, err := getAffinity(0)
	if err != nil {
		return 0, 0, false
	}
	var cpus []int
	for i := 0; i < len(m)*64 && len(cpus) < 2; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	if len(cpus) < 2 {
		return 0, 0, false
	}
	return cpus[0], cpus[1], true
}
