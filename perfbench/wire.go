package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The wire-udp workload: the real sailfish-gw binary in its default
// serial mode, loaded with the population's tenants (tail VMs as software
// tenants), fed VXLAN datagrams over loopback by a closed-loop generator.
// One benchmark socket both sends and sinks: every NC's underlay entry is
// a distinct loopback address on the sink's port, so the destination
// address of each delivered datagram names the NC the daemon chose.

// wireWindow is the generator's fixed number of datagrams in flight.
const wireWindow = 16

// daemon is one running sailfish-gw process.
type daemon struct {
	cmd     *exec.Cmd
	udpPort int
	admin   string // host:port of the admin plane
	// errLines counts log lines after start-up: the daemon logs every
	// datagram it fails to forward.
	errLines chan string
	done     chan struct{}
}

// ncUnderlay is the loopback address standing in for server i.
func ncUnderlay(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{127, 16 + byte(i>>16), byte(i >> 8), byte(i)})
}

// gwConfig mirrors the daemon's JSON config file.
type gwConfig struct {
	GatewayIP       string            `json:"gatewayIP"`
	Listen          string            `json:"listen"`
	Underlay        map[string]string `json:"underlay"`
	Tenants         []gwTenant        `json:"tenants"`
	SoftwareTenants []gwTenant        `json:"softwareTenants"`
}

type gwTenant struct {
	VNI    uint32            `json:"vni"`
	Prefix string            `json:"prefix"`
	VMs    map[string]string `json:"vms"`
}

// writeGWConfig writes the daemon config for the population: every VM but
// the tail in hardware, the tail VMs as software tenants.
func writeGWConfig(path string, pop Population, sinkPort int) error {
	cfg := gwConfig{GatewayIP: gatewayIP.String(), Listen: "127.0.0.1:0", Underlay: make(map[string]string)}
	for i := 0; i < pop.NCs; i++ {
		cfg.Underlay[pop.NC(i).String()] = netip.AddrPortFrom(ncUnderlay(i), uint16(sinkPort)).String()
	}
	tail := pop.TailVM()
	for t := 0; t < pop.Tenants; t++ {
		hw := gwTenant{VNI: uint32(pop.VNI(t)), Prefix: pop.Prefix(t).String(), VMs: make(map[string]string)}
		for v := 0; v < tail; v++ {
			hw.VMs[pop.VM(t, v).String()] = pop.NC(pop.NCIndex(t, v)).String()
		}
		sw := gwTenant{VNI: hw.VNI, Prefix: hw.Prefix,
			VMs: map[string]string{pop.VM(t, tail).String(): pop.NC(pop.NCIndex(t, tail)).String()}}
		cfg.Tenants = append(cfg.Tenants, hw)
		cfg.SoftwareTenants = append(cfg.SoftwareTenants, sw)
	}
	raw, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// startDaemon runs the gateway and waits until its socket and admin plane
// are up.
func startDaemon(bin, cfgPath string) (*daemon, error) {
	cmd := exec.Command(bin, "-config", cfgPath, "-admin", "127.0.0.1:0")
	// The daemon must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := cmd.Start
	if haveWireCPUs {
		start = func() error { return startOnCPU(cmd, gwCPU) }
	}
	if err := start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, errLines: make(chan string, 64), done: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		up := false
		var seen []string
		for sc.Scan() {
			line := sc.Text()
			if !up {
				seen = append(seen, line)
				if _, rest, ok := strings.Cut(line, "admin plane on http://"); ok {
					d.admin, _, _ = strings.Cut(rest, " ")
				}
				if strings.Contains(line, "serving on") {
					up = true
					ready <- nil
				}
				continue
			}
			select {
			case d.errLines <- line:
			default: // already failing; the count is what matters
			}
		}
		if !up {
			ready <- fmt.Errorf("daemon exited before serving: %s", strings.Join(seen, " | "))
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			d.stop()
			return nil, err
		}
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not come up within 60s")
	}
	port, err := daemonUDPPort(cmd.Process.Pid)
	if err != nil || d.admin == "" {
		d.stop()
		return nil, fmt.Errorf("locate daemon sockets (admin %q): %v", d.admin, err)
	}
	d.udpPort = port
	return d, nil
}

// daemonUDPPort finds the daemon's listening UDP port through its socket
// inodes.
func daemonUDPPort(pid int) (int, error) {
	inodes, err := socketInodes(pid)
	if err != nil {
		return 0, err
	}
	socks, err := readUDPSockets()
	if err != nil {
		return 0, err
	}
	for _, s := range socks {
		if inodes[s.inode] {
			return s.port, nil
		}
	}
	return 0, errors.New("no UDP socket in the daemon's descriptors")
}

// stop kills the daemon and waits for it and its log reader to end.
func (d *daemon) stop() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	}
	d.cmd.Wait() //nolint:errcheck // killed on purpose
	<-d.done
}

// adminGet fetches one admin endpoint.
func (d *daemon) adminGet(path string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.admin+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// gwCounters are the daemon's gateway counters from /metrics.
type gwCounters struct{ forwarded, fallback, dropped, x86Forwarded float64 }

func (d *daemon) counters() (gwCounters, error) {
	body, err := d.adminGet("/metrics", 10*time.Second)
	if err != nil {
		return gwCounters{}, err
	}
	var c gwCounters
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := promSample(line)
		if !ok {
			continue
		}
		switch name {
		case "sailfish_gw_forwarded_total":
			c.forwarded += val
		case "sailfish_gw_fallback_total":
			c.fallback += val
		case "sailfish_gw_dropped_total":
			c.dropped += val
		case "sailfish_x86_forwarded_total":
			c.x86Forwarded += val
		}
	}
	return c, nil
}

// promSample splits one Prometheus text sample into its metric name
// (labels dropped) and value.
func promSample(line string) (string, float64, bool) {
	if line == "" || line[0] == '#' {
		return "", 0, false
	}
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return "", 0, false
	}
	name := line[:i]
	if j := strings.IndexByte(name, '{'); j >= 0 {
		name = name[:j]
	}
	return name, v, true
}

// memStats is the daemon's runtime.MemStats subset the benchmark reads.
type memStats struct{ mallocs, numGC, heapAlloc uint64 }

// memStats reads the daemon's MemStats from the heap profile's text form;
// with gc the daemon collects first, so heapAlloc is the live heap.
func (d *daemon) memStats(gc bool) (memStats, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	body, err := d.adminGet(path, 10*time.Second)
	if err != nil {
		return memStats{}, err
	}
	var m memStats
	fields := map[string]*uint64{"# Mallocs = ": &m.mallocs, "# NumGC = ": &m.numGC, "# HeapAlloc = ": &m.heapAlloc}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		for prefix, dst := range fields {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				if *dst, err = strconv.ParseUint(strings.TrimSpace(v), 10, 64); err != nil {
					return memStats{}, fmt.Errorf("heap profile %q: %w", line, err)
				}
				found++
			}
		}
	}
	if found != len(fields) {
		return memStats{}, errors.New("heap profile lacks MemStats")
	}
	return m, nil
}

// generator is the closed-loop client: it keeps wireWindow datagrams in
// flight, sends the next one of the stream whenever one is delivered, and
// checks every delivery.
type generator struct {
	st    *Stream
	seed  int64
	fd    int // the sink socket, non-blocking
	gw    syscall.SockaddrInet4
	ncIdx map[netip.Addr]int // underlay address → server index
	// inflight maps a sequence number to its flow and send time.
	inflight map[uint64]sent
	next     uint64 // next sequence number == packets sent so far
	idx      int    // next stream position
	buf      []byte
	rbuf     []byte
	oob      []byte
	want     []byte // scratch for re-deriving payload filler

	delivered, failed, lost uint64
	lat                     []float64 // µs, when recording
	latCuts                 []int     // len(lat) at each slice end
	recording               bool
}

type sent struct {
	flow int
	at   time.Time
}

func newGenerator(st *Stream, seed int64, conn *net.UDPConn, gwPort int) (*generator, error) {
	// The generator runs on a CPU of its own and polls the socket with
	// plain syscalls instead of sleeping in the runtime's poller. Asleep,
	// it paid a park and a cross-CPU wake-up for every delivery and was
	// the slower side; polling keeps it cheaper than the daemon, so the
	// daemon sets the pace. IP_PKTINFO delivers each datagram's
	// destination address: the NC.
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	fd := -1
	var serr error
	if err := rc.Control(func(raw uintptr) {
		fd = int(raw)
		serr = syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1)
	}); err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, fmt.Errorf("IP_PKTINFO: %w", serr)
	}
	g := &generator{st: st, seed: seed, fd: fd,
		gw:       syscall.SockaddrInet4{Port: gwPort, Addr: [4]byte{127, 0, 0, 1}},
		ncIdx:    make(map[netip.Addr]int, st.Pop.NCs),
		inflight: make(map[uint64]sent, wireWindow),
		buf:      make([]byte, 2048), rbuf: make([]byte, 2048), oob: make([]byte, 128),
		want: make([]byte, 64)}
	for i := 0; i < st.Pop.NCs; i++ {
		g.ncIdx[ncUnderlay(i)] = i
	}
	return g, nil
}

// outerLen is the outer Ethernet + IPv4 + UDP the kernel adds on the wire;
// the daemon's datagrams start at the VXLAN header.
const outerLen = 14 + 20 + 8

// send transmits the next packet of the stream with a fresh sequence
// number stamped into its payload.
func (g *generator) send() error {
	f := g.st.FlowAt(g.idx)
	g.idx++
	pkt := g.st.Packet(f)[outerLen:]
	n := copy(g.buf, pkt)
	at := g.st.payloadAt[f] - outerLen
	seq := g.next
	g.next++
	binary.BigEndian.PutUint64(g.buf[at:at+8], seq)
	g.inflight[seq] = sent{flow: f, at: time.Now()}
	for {
		switch err := syscall.Sendto(g.fd, g.buf[:n], 0, &g.gw); err {
		case syscall.EINTR, syscall.EAGAIN:
		default:
			return err
		}
	}
}

// fill tops the window up.
func (g *generator) fill() error {
	for len(g.inflight) < wireWindow {
		if err := g.send(); err != nil {
			return err
		}
	}
	return nil
}

// receive waits for one delivery, checks it and replaces it in the window.
func (g *generator) receive() error {
	if err := g.await(); err != nil {
		return err
	}
	return g.fill()
}

// lossTimeout is how long await polls before it declares everything in
// flight lost.
const lossTimeout = time.Second

// await polls for one delivery and checks it. After lossTimeout without
// one, everything in flight is declared lost.
func (g *generator) await() error {
	var since time.Time
	for spins := 0; ; spins++ {
		n, oobn, _, _, err := syscall.Recvmsg(g.fd, g.rbuf, g.oob, 0)
		switch err {
		case nil:
			if !g.check(g.rbuf[:n], g.oob[:oobn]) {
				g.failed++
			}
			return nil
		case syscall.EAGAIN, syscall.EINTR:
		default:
			return err
		}
		if spins&1023 != 0 {
			continue
		}
		if since.IsZero() {
			since = time.Now()
		} else if time.Since(since) >= lossTimeout {
			g.lost += uint64(len(g.inflight))
			g.failed += uint64(len(g.inflight))
			clear(g.inflight)
			return nil
		}
	}
}

// check validates one delivered datagram: known sequence number, the
// flow's VNI, its inner destination, an intact payload, and the NC the
// flow's destination VM lives on.
func (g *generator) check(d, oob []byte) bool {
	plen := len(g.want)
	if len(d) < 8+plen {
		return false
	}
	p := d[len(d)-plen:]
	seq := binary.BigEndian.Uint64(p[0:8])
	s, ok := g.inflight[seq]
	if !ok {
		return false
	}
	delete(g.inflight, seq)
	now := time.Now()
	g.delivered++
	if g.recording {
		g.lat = append(g.lat, float64(now.Sub(s.at).Nanoseconds())/1e3)
	}
	fl := &g.st.Flows[s.flow]
	if vxlanVNI(d) != uint32(fl.VNI) {
		return false
	}
	fillPayload(g.want, g.seed, s.flow)
	if binary.BigEndian.Uint64(p[8:16]) != uint64(s.flow) || string(p[16:]) != string(g.want[16:]) {
		return false
	}
	sentPkt := g.st.Packet(s.flow)[outerLen:]
	if len(sentPkt) != len(d) || string(sentPkt[8:len(d)-plen]) != string(d[8:len(d)-plen]) {
		return false // inner headers must arrive as sent
	}
	dst, ok := pktinfoDst(oob)
	if !ok {
		return false
	}
	nc, ok := g.ncIdx[dst]
	return ok && g.st.Pop.NC(nc) == fl.WantNC
}

// vxlanVNI reads the VNI from a VXLAN header.
func vxlanVNI(d []byte) uint32 { return uint32(d[4])<<16 | uint32(d[5])<<8 | uint32(d[6]) }

// pktinfoDst extracts the destination address from the IP_PKTINFO
// control message, the only one the socket asks for.
func pktinfoDst(oob []byte) (netip.Addr, bool) {
	// struct cmsghdr { size_t len; int level; int type; } is followed by
	// struct in_pktinfo { int ifindex; in_addr spec_dst; in_addr addr; }.
	const hdr = syscall.SizeofCmsghdr
	if len(oob) < hdr+syscall.SizeofInet4Pktinfo {
		return netip.Addr{}, false
	}
	level := int32(binary.NativeEndian.Uint32(oob[hdr-8 : hdr-4]))
	typ := int32(binary.NativeEndian.Uint32(oob[hdr-4 : hdr]))
	if level != syscall.IPPROTO_IP || typ != syscall.IP_PKTINFO {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4([4]byte(oob[hdr+8 : hdr+12])), true
}

// drain waits for the window to empty so the next phase starts clean.
func (g *generator) drain() error {
	for len(g.inflight) > 0 {
		if err := g.await(); err != nil {
			return err
		}
	}
	return nil
}

// runFor keeps the loop going for d, returning each slice's delivery rate
// and the CPU time the hypervisor stole from this VM during it, in ticks.
func (g *generator) runFor(d, slice time.Duration) (rates []float64, steal []uint64, err error) {
	if err := g.fill(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	sliceStart, sliceDelivered, ct := start, g.delivered, readCPUTimes()
	for {
		if err := g.receive(); err != nil {
			return nil, nil, err
		}
		if now := time.Now(); now.Sub(sliceStart) >= slice {
			rates = append(rates, float64(g.delivered-sliceDelivered)/now.Sub(sliceStart).Seconds())
			next := readCPUTimes()
			steal = append(steal, next.steal-ct.steal)
			if g.recording {
				g.latCuts = append(g.latCuts, len(g.lat))
			}
			sliceStart, sliceDelivered, ct = now, g.delivered, next
			if now.Sub(start) >= d {
				return rates, steal, nil
			}
		}
	}
}

// bindGenerator keeps the generator on its own CPU, apart from the
// daemon's, with one P: each process has a core to itself instead of
// both migrating across the two.
func bindGenerator() (restore func(), err error) {
	if !haveWireCPUs {
		return func() {}, nil
	}
	unbind, err := bindProcess(genCPU)
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		unbind()
	}, nil
}

// wireSetup is what the wire workload builds before measuring.
type wireSetup struct {
	cfgPath string
	conn    *net.UDPConn
	d       *daemon
}

// setupWire writes the config and starts the daemon at least starts times
// (more while the setup budget lasts when starts > 1), keeping the last one
// running; it returns each start's duration.
func setupWire(bin, workDir string, pop Population, starts int) (*wireSetup, []float64, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return nil, nil, err
	}
	ws := &wireSetup{conn: conn, cfgPath: filepath.Join(workDir, fmt.Sprintf("gw-%d.json", os.Getpid()))}
	sinkPort := conn.LocalAddr().(*net.UDPAddr).Port
	if err := writeGWConfig(ws.cfgPath, pop, sinkPort); err != nil {
		conn.Close()
		return nil, nil, err
	}
	var times []float64
	begin := time.Now()
	for i := 0; i < starts || (starts > 1 && i < maxSetups && time.Since(begin) < setupBudget); i++ {
		t0 := time.Now()
		d, err := startDaemon(bin, ws.cfgPath)
		if err != nil {
			ws.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if ws.d != nil {
			ws.d.stop()
		}
		ws.d = d
	}
	return ws, times, nil
}

func (ws *wireSetup) close() {
	if ws.d != nil {
		ws.d.stop()
	}
	ws.conn.Close()
	os.Remove(ws.cfgPath) //nolint:errcheck // best effort
}

func (ws *wireSetup) sinkPort() int { return ws.conn.LocalAddr().(*net.UDPAddr).Port }

// wirePhases sizes the wire workload's phases.
func wirePhases(o options) (starts int, warmup, slice time.Duration) {
	if o.tiny {
		return 1, 200 * time.Millisecond, 100 * time.Millisecond
	}
	return 3, time.Second, 500 * time.Millisecond
}

// wireStream is the wire workload's traffic: the population's VM flows
// (no SNAT: the daemon's embedded node has no public pool).
func wireStream(o options) (*Stream, error) { return GenerateStream(streamFor(o, false), o.seed) }

// untracedWire measures the daemon end to end.
func untracedWire(o options, rep *report) error {
	st, err := wireStream(o)
	if err != nil {
		return err
	}
	starts, warmup, slice := wirePhases(o)
	ws, times, err := setupWire(o.gwBin, o.outDir, st.Pop, starts)
	if err != nil {
		return err
	}
	defer ws.close()
	rep.set("setup_s", median(times), "s")
	rep.notef("setup: %d daemon starts (exec to serving), %s s each", len(times), fmtList(times, "%.3f"))
	g, err := newGenerator(st, o.seed, ws.conn, ws.d.udpPort)
	if err != nil {
		return err
	}
	unbind, err := bindGenerator()
	if err != nil {
		return err
	}
	defer unbind()
	if _, _, err := g.runFor(warmup, slice); err != nil {
		return err
	}
	if err := g.drain(); err != nil {
		return err
	}
	c0, err := ws.d.counters()
	if err != nil {
		return err
	}
	sent0, failed0 := g.next, g.failed
	g.recording = true
	pid := ws.d.cmd.Process.Pid
	ticks0, err := procCPUTicks(pid)
	if err != nil {
		return err
	}
	wall0 := time.Now()
	rates, steal, err := g.runFor(time.Duration(o.seconds*float64(time.Second)), slice)
	if err != nil {
		return err
	}
	ticks1, err := procCPUTicks(pid)
	if err != nil {
		return err
	}
	rep.notef("daemon busy %.3f of the wall time (1 when it sets the pace)",
		float64(ticks1-ticks0)/clockTicksPerSecond/time.Since(wall0).Seconds())
	if err := g.drain(); err != nil {
		return err
	}
	g.recording = false
	c1, err := ws.d.counters()
	if err != nil {
		return err
	}
	// The live heap after a forced collection, as in-process; RSS follows
	// the GC cycle and start-up garbage, so it is only printed.
	mem, err := ws.d.memStats(true)
	if err != nil {
		return err
	}
	rep.set("mem_mib", float64(mem.heapAlloc)/(1<<20), "MiB")
	rss, err := procPeakRSSBytes(ws.d.cmd.Process.Pid)
	if err != nil {
		return err
	}
	rep.notef("daemon peak RSS %.1f MiB", float64(rss)/(1<<20))
	sent, failed := g.next-sent0, g.failed-failed0
	keep := calm(steal)
	rep.set("pps", median(kept(rates, keep)), "1/s")
	rep.set("lat_p50_us", medianOfSlices(g.lat, g.latCuts, 50, keep), "us")
	rep.set("lat_p99_us", medianOfSlices(g.lat, g.latCuts, 99, keep), "us")
	completed := (c1.forwarded - c0.forwarded) + (c1.fallback - c0.fallback) + (c1.dropped - c0.dropped)
	hw := 0.0
	if completed > 0 {
		hw = (c1.forwarded - c0.forwarded) / completed
	}
	// No DPU tier in the daemon's serial mode: the stack is the hardware.
	rep.set("hw_share", hw, "ratio")
	rep.set("stack_coverage", hw, "ratio")
	wireChecks(rep, ws.d, g, sent, failed, c0, c1)
	rep.notef("closed loop, window %d datagrams over loopback: %d slices of %v; pps is the median rate over the %d calm slices (least stolen CPU); all slices: median %.0f",
		wireWindow, len(rates), slice, len(kept(rates, keep)), median(rates))
	rep.notef("latency: send-to-sink round trip, %d samples; p50/p99 taken per calm slice, median over them (whole-run p99 %.1f us)",
		len(g.lat), percentile(g.lat, 99))
	return nil
}

// wireChecks books the wire workload's output checks: every datagram
// delivered intact to the right NC, and the daemon's own counters agreeing.
func wireChecks(rep *report, d *daemon, g *generator, sent, failed uint64, c0, c1 gwCounters) {
	rep.res.Attempted, rep.res.Failed = sent, failed
	if failed > 0 {
		rep.fail("%d of %d datagrams lost or mis-delivered (%d lost)", failed, sent, g.lost)
	}
	if dropped := c1.dropped - c0.dropped; dropped > 0 {
		rep.fail("daemon dropped %.0f datagrams", dropped)
	}
	if done := (c1.forwarded - c0.forwarded) + (c1.fallback - c0.fallback); done != float64(sent) {
		rep.fail("daemon completed %.0f datagrams, generator sent %d", done, sent)
	}
	if x86 := c1.x86Forwarded - c0.x86Forwarded; x86 != c1.fallback-c0.fallback {
		rep.fail("x86 forwarded %.0f of %.0f fallbacks", x86, c1.fallback-c0.fallback)
	}
	select {
	case line := <-d.errLines:
		rep.fail("daemon logged an error: %s", line)
	default:
	}
}

// tracedWire attributes the daemon's CPU time to layers: an untraced
// phase gives the reference rate, then a phase under the daemon's own CPU
// profiler gives the shares, with CPU time, allocations and kernel drops
// read around it.
func tracedWire(o options, rep *report) error {
	st, err := wireStream(o)
	if err != nil {
		return err
	}
	_, warmup, slice := wirePhases(o)
	ws, _, err := setupWire(o.gwBin, o.outDir, st.Pop, 1)
	if err != nil {
		return err
	}
	defer ws.close()
	g, err := newGenerator(st, o.seed, ws.conn, ws.d.udpPort)
	if err != nil {
		return err
	}
	unbind, err := bindGenerator()
	if err != nil {
		return err
	}
	defer unbind()
	if _, _, err := g.runFor(warmup, slice); err != nil {
		return err
	}
	if err := g.drain(); err != nil {
		return err
	}
	c0, err := ws.d.counters()
	if err != nil {
		return err
	}
	pid := ws.d.cmd.Process.Pid
	sent0, failed0 := g.next, g.failed
	drops0, err := udpDrops(ws.d.udpPort, ws.sinkPort())
	if err != nil {
		return err
	}

	half := max(1, int(math.Round(o.seconds*0.45)))
	d0 := g.delivered
	t0 := time.Now()
	if _, _, err := g.runFor(time.Duration(half)*time.Second, slice); err != nil {
		return err
	}
	ppsU := float64(g.delivered-d0) / time.Since(t0).Seconds()

	m0, err := ws.d.memStats(false)
	if err != nil {
		return err
	}
	ticks0, err := procCPUTicks(pid)
	if err != nil {
		return err
	}
	type profResult struct {
		body []byte
		err  error
	}
	profc := make(chan profResult, 1)
	go func() {
		body, err := ws.d.adminGet(fmt.Sprintf("/debug/pprof/profile?seconds=%d", half), time.Duration(half+30)*time.Second)
		profc <- profResult{body, err}
	}()
	d1 := g.delivered
	t1 := time.Now()
	var prof profResult
	for done := false; !done; {
		if _, _, err := g.runFor(slice, slice); err != nil {
			return err
		}
		select {
		case prof = <-profc:
			done = true
		default:
		}
	}
	elapsedT := time.Since(t1)
	deliveredT := g.delivered - d1
	ticks1, err := procCPUTicks(pid)
	if err != nil {
		return err
	}
	m1, err := ws.d.memStats(false)
	if err != nil {
		return err
	}
	if err := g.drain(); err != nil {
		return err
	}
	c1, err := ws.d.counters()
	if err != nil {
		return err
	}
	drops1, err := udpDrops(ws.d.udpPort, ws.sinkPort())
	if err != nil {
		return err
	}
	if prof.err != nil {
		return prof.err
	}
	wireChecks(rep, ws.d, g, g.next-sent0, g.failed-failed0, c0, c1)

	ppsT := float64(deliveredT) / elapsedT.Seconds()
	cpuNs := float64(ticks1-ticks0) * 1e9 / clockTicksPerSecond / float64(deliveredT)
	shares, samples, err := profileShares(prof.body)
	if err != nil {
		return err
	}
	setShares(rep, shares)
	rep.set("gw.cpu_us_per_pkt", cpuNs/1e3, "us")
	rep.set("gw.kernel_drops", float64(drops1-drops0), "count")
	rep.set("netpkt.front_ns", shares[classNetpkt]*cpuNs, "ns")
	rep.set("xgwh.ns", shares[classXGWH]*cpuNs, "ns")
	rep.set("xgw86.ns", shares[classX86]*cpuNs, "ns")
	rep.set("heavyhitter.observe_ns", shares[classHeavyHitter]*cpuNs, "ns")
	rep.set("runtime.allocs_per_pkt", float64(m1.mallocs-m0.mallocs)/float64(deliveredT), "count")
	rep.set("runtime.gc_cycles", float64(m1.numGC-m0.numGC), "count")
	// Layers the daemon's serial mode does not run read 0.
	for _, name := range []string{"lb.route_ns", "cluster.self_ns", "xgwdpu.ns"} {
		rep.set(name, 0, "ns")
	}
	rep.set("placement.cycle_ms_p50", 0, "ms")
	rep.set("placement.cycle_ms_p99", 0, "ms")
	rep.set("xgwh.passes_per_pkt", 0, "count")
	rep.set("xgwdpu.hit_ratio", 0, "ratio")
	completed := (c1.forwarded - c0.forwarded) + (c1.fallback - c0.fallback)
	rep.set("xgw86.share", (c1.x86Forwarded-c0.x86Forwarded)/completed, "ratio")
	rep.set("snat.sessions", 0, "count")
	rep.set("placement.moves_per_cycle", 0, "count")
	rep.set("placement.failed", 0, "count")
	rep.set("trace.overhead_ratio", ppsT/ppsU, "ratio")
	// The daemon is not CPU-bound in a closed loop: the part of each
	// datagram's untraced wall time its CPU does not cover is time spent
	// waiting on the generator and the kernel's wake-ups.
	rep.set("trace.unaccounted_ns", math.Abs(1e9/ppsU-cpuNs), "ns")
	rep.notef("untraced phase %d s: %.0f pps; profiled phase %.2f s: %.0f pps, %d CPU samples",
		half, ppsU, elapsedT.Seconds(), ppsT, samples)
	rep.notef("daemon CPU %.2f us per delivered datagram; per-layer ns = profile share x CPU per datagram", cpuNs/1e3)
	rep.notef("no DPU, placement loop, SNAT pool, lb or cluster lane in the daemon's serial mode: those layers read 0 here")
	layerNs := map[string]float64{}
	for _, c := range []string{classSyscall, classShell, classNetpkt, classXGWH, classHeavyHitter, classX86, classRuntime, classOther} {
		layerNs[c] = shares[c] * cpuNs
	}
	rep.notef("budget (ns/datagram: daemon CPU by profile class vs untraced wall time):")
	for _, c := range []string{classSyscall, classShell, classNetpkt, classXGWH, classHeavyHitter, classX86, classRuntime, classOther} {
		rep.notef("  %-12s %10.1f  %5.1f%%", c, layerNs[c], 100*shares[c])
	}
	rep.notef("  %-12s %10.1f", "cpu total", cpuNs)
	rep.notef("  %-12s %10.1f", "untraced", 1e9/ppsU)
	rep.notef("  %-12s %10.1f  (daemon idle: generator and wake-ups)", "unaccounted", 1e9/ppsU-cpuNs)
	rep.notef("  tracing overhead: profiled/untraced pps = %.3f", ppsT/ppsU)
	return nil
}
