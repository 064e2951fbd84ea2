// Command sailfish-gw runs one XGW-H gateway as a real VXLAN-over-UDP
// forwarder: VXLAN datagrams arriving on the listen socket are pushed
// through the gateway's folded-pipeline model, and forwarded packets are
// re-encapsulated and sent over UDP to the destination NC's underlay
// address.
//
// Usage:
//
//	sailfish-gw -config region.json        # serve a config file
//	sailfish-gw -demo                      # self-contained loopback demo
//
// The config maps overlay state (tenants, VMs) and the underlay (NC IP →
// UDP address). See -demo for the wire protocol end to end: the daemon's
// UDP payload is the standard VXLAN header plus the inner Ethernet frame
// (RFC 7348), so any VXLAN-speaking peer can interoperate on the socket.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sailfish/internal/heavyhitter"
	"sailfish/internal/netpkt"
	"sailfish/internal/pcap"
	"sailfish/internal/placement"
	"sailfish/internal/shardplane"
	"sailfish/internal/slo"
	"sailfish/internal/tables"
	"sailfish/internal/telemetry"
	"sailfish/internal/tofino"
	"sailfish/internal/trace"
	"sailfish/internal/xgw86"
	"sailfish/internal/xgwdpu"
	"sailfish/internal/xgwh"
)

// fileConfig is the JSON configuration of one gateway.
type fileConfig struct {
	GatewayIP string            `json:"gatewayIP"`
	Listen    string            `json:"listen"`
	Underlay  map[string]string `json:"underlay"` // NC IP → UDP addr
	Tenants   []tenantConfig    `json:"tenants"`
	// SoftwareTenants are installed only in the embedded XGW-x86 node —
	// the volatile-table half of the §4.2 co-design. Their traffic misses
	// in hardware and completes on the software path.
	SoftwareTenants []tenantConfig `json:"softwareTenants"`
	// Placement, when present, runs the 95/5 residency loop over the
	// software tenants: hot (VNI, DIP) keys are promoted into the hardware
	// gateway and demoted when they cool (see internal/placement).
	Placement *placementConfig `json:"placement,omitempty"`
	// SLO, when present, runs the per-tenant burn-rate evaluator over every
	// configured tenant and serves /slo, /slo/{vni} and /events on the admin
	// plane (see internal/slo).
	SLO *sloConfig `json:"slo,omitempty"`
	// Workers selects the datagram processing model. 0 or 1 (the default)
	// is the single run-to-completion serve loop. N > 1 runs the RSS-style
	// sharded plane: the receive goroutine hashes each datagram's flow onto
	// one of N SPSC rings, each drained by its own run-to-completion worker
	// goroutine — the same dispatch internal/shardplane uses for the
	// region, so a flow's packets always land on one worker and SNAT,
	// trace and heavy-hitter state keep flow affinity. Needs GOMAXPROCS
	// (and cores) > 1 to pay off. Incompatible with the placement stanza:
	// the residency loop mutates gateway tables between datagrams, which
	// is only safe while one goroutine owns the data path.
	Workers int `json:"workers,omitempty"`
}

type tenantConfig struct {
	VNI    uint32            `json:"vni"`
	Prefix string            `json:"prefix"`
	VMs    map[string]string `json:"vms"` // VM IP → NC IP
}

func main() {
	cfgPath := flag.String("config", "", "JSON config file")
	demo := flag.Bool("demo", false, "run the self-contained loopback demo and exit")
	chaos := flag.Bool("chaos", false, "run the seeded disaster-recovery chaos scenario and exit")
	count := flag.Int("n", 3, "demo: packets to send")
	pcapPath := flag.String("pcap", "", "write ingress/egress frames to this pcap file")
	adminAddr := flag.String("admin", "", "admin HTTP listen address (/metrics, /healthz, /debug/pprof); empty disables")
	flag.Parse()

	switch {
	case *chaos:
		if err := runChaos(); err != nil {
			log.Fatal(err)
		}
	case *demo:
		if err := runDemo(*count, *adminAddr); err != nil {
			log.Fatal(err)
		}
	case *cfgPath != "":
		raw, err := os.ReadFile(*cfgPath)
		if err != nil {
			log.Fatal(err)
		}
		var fc fileConfig
		if err := json.Unmarshal(raw, &fc); err != nil {
			log.Fatal(err)
		}
		gw, err := newServer(fc)
		if err != nil {
			log.Fatal(err)
		}
		if *pcapPath != "" {
			f, err := os.Create(*pcapPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			gw.pcap = pcap.NewWriter(f)
			log.Printf("sailfish-gw: capturing to %s", *pcapPath)
		}
		if *adminAddr != "" {
			bound, stop, err := startAdmin(*adminAddr, gw, gw.registerMetrics())
			if err != nil {
				log.Fatal(err)
			}
			defer stop() //nolint:errcheck
			log.Printf("sailfish-gw: admin plane on http://%s (/metrics, /healthz, /debug/pprof)", bound)
		}
		log.Printf("sailfish-gw: serving on %s (%d routes, %d VMs)",
			fc.Listen, gw.gw.RouteCount(), gw.gw.VMCount())
		log.Fatal(gw.serve())
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// server is the running daemon: a gateway plus its UDP socket and underlay
// address map.
type server struct {
	gw  *xgwh.Gateway
	x86 *xgw86.Node
	// dpu is the optional SmartNIC warm tier between the hardware gateway
	// and the x86 software path (nil unless the placement stanza's dpu
	// sub-stanza enables it). Hardware table misses try it before x86;
	// service-steered traffic (SNAT) skips straight to x86.
	dpu      *xgwdpu.Pool
	conn     *net.UDPConn
	underlay map[netip.Addr]*net.UDPAddr
	buf      [9216]byte
	sbuf     *netpkt.SerializeBuffer
	// sc is the serial data path's packet scratch: each datagram is parsed
	// into it once and every tier consumes that parse.
	sc *xgwh.PacketScratch
	// pcap, when set, captures every synthesized ingress frame and every
	// rewritten egress frame.
	pcap *pcap.Writer
	// Observability planes, all wired at construction: the flight recorder
	// (both gateways emit into it), the heavy-hitter tracker (fed per
	// datagram from handle), and the Vtrace matcher/collector pair.
	rec       *trace.Recorder
	hh        *heavyhitter.Tracker
	matcher   *telemetry.Matcher
	collector *telemetry.Collector
	// Residency loop (nil unless the config enables placement). Cycles run
	// from the serve goroutine between datagrams.
	loop      *placement.Loop
	loopEvery time.Duration
	lastCycle time.Time
	// SLO evaluation (nil unless the config enables the slo stanza): the
	// collector mirrors every datagram's disposition per VNI, the engine
	// evaluates burn rates on maybeCycle's cadence, and the journal merges
	// alerts with placement and SNAT events.
	sloCol      *slo.Collector
	sloEng      *slo.Engine
	journal     *slo.Journal
	sloEvery    time.Duration
	lastSLOTick time.Time
	// lastSync throttles the SNAT standby replication pump.
	lastSync time.Time
	// Sharded mode (workers > 1): one gwShard per worker, the x86 software
	// path serialized across them (its re-encap scratch is
	// single-threaded), and a closed flag the dispatcher flips so workers
	// drain and exit.
	workers int
	shards  []*gwShard
	fbMu    sync.Mutex
	closed  atomic.Bool
}

// gwShard is one worker's share of the sharded data plane: a bounded SPSC
// ring fed by the dispatcher and a private gateway scratch, so the hot path
// never crosses a lock except at the x86 fallback tail.
type gwShard struct {
	ring      *shardplane.Ring
	sc        *xgwh.PacketScratch
	processed atomic.Uint64
	ringFull  atomic.Uint64
	oversize  atomic.Uint64
}

func newServer(fc fileConfig) (*server, error) {
	gwIP, err := netip.ParseAddr(fc.GatewayIP)
	if err != nil {
		return nil, fmt.Errorf("gatewayIP: %w", err)
	}
	x86cfg := xgw86.DefaultConfig()
	x86cfg.GatewayIP = gwIP
	s := &server{
		gw: xgwh.New(xgwh.Config{
			Chip: tofino.DefaultChip(), Folded: true, SplitPipes: true,
			GatewayIP: gwIP,
		}),
		x86:      xgw86.NewNode(x86cfg),
		underlay: make(map[netip.Addr]*net.UDPAddr),
		sbuf:     netpkt.NewSerializeBuffer(128, 4096),
		sc:       xgwh.NewPacketScratch(),

		// 1-in-64 deterministic flow sampling; drops are always captured.
		rec:       trace.New(trace.Config{Shards: 8, SlotsPerShard: 4096, SampleShift: 6}),
		hh:        heavyhitter.NewTracker(1024),
		matcher:   telemetry.NewMatcher(),
		collector: telemetry.NewCollector(),
	}
	s.gw.EnableTracing(s.rec, "xgwh-0")
	s.x86.EnableTracing(s.rec, "xgw86-0")
	s.gw.EnableTelemetry("xgwh-0", s.matcher, s.collector)
	for nc, addr := range fc.Underlay {
		ip, err := netip.ParseAddr(nc)
		if err != nil {
			return nil, fmt.Errorf("underlay key %q: %w", nc, err)
		}
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, fmt.Errorf("underlay %q: %w", addr, err)
		}
		s.underlay[ip] = ua
	}
	for _, t := range fc.Tenants {
		p, err := netip.ParsePrefix(t.Prefix)
		if err != nil {
			return nil, fmt.Errorf("tenant %d prefix: %w", t.VNI, err)
		}
		if err := s.gw.InstallRoute(netpkt.VNI(t.VNI), p, tables.Route{Scope: tables.ScopeLocal}); err != nil {
			return nil, err
		}
		for vm, nc := range t.VMs {
			vmIP, err := netip.ParseAddr(vm)
			if err != nil {
				return nil, err
			}
			ncIP, err := netip.ParseAddr(nc)
			if err != nil {
				return nil, err
			}
			s.gw.InstallVM(netpkt.VNI(t.VNI), vmIP, ncIP)
		}
	}
	for _, t := range fc.SoftwareTenants {
		p, err := netip.ParsePrefix(t.Prefix)
		if err != nil {
			return nil, fmt.Errorf("software tenant %d prefix: %w", t.VNI, err)
		}
		if err := s.x86.Routes.Insert(netpkt.VNI(t.VNI), p, tables.Route{Scope: tables.ScopeLocal}); err != nil {
			return nil, err
		}
		for vm, nc := range t.VMs {
			vmIP, err := netip.ParseAddr(vm)
			if err != nil {
				return nil, err
			}
			ncIP, err := netip.ParseAddr(nc)
			if err != nil {
				return nil, err
			}
			s.x86.VMNC.Insert(netpkt.VNI(t.VNI), vmIP, ncIP)
		}
	}
	if fc.Workers < 0 {
		return nil, fmt.Errorf("workers: %d (must be >= 0)", fc.Workers)
	}
	if fc.Workers > 1 && fc.Placement != nil {
		return nil, fmt.Errorf("workers: %d is incompatible with the placement stanza: "+
			"the residency loop mutates gateway tables between datagrams, which is only "+
			"safe while one goroutine owns the data path; set workers to 1 or drop placement",
			fc.Workers)
	}
	s.workers = fc.Workers
	if fc.Workers > 1 {
		s.shards = make([]*gwShard, fc.Workers)
		for i := range s.shards {
			// Scratch events resolve to the gateway's wired recorder; ring
			// slots hold a full synthesized frame (9216-byte datagram
			// budget plus outer Eth/IP/UDP headroom).
			s.shards[i] = &gwShard{
				ring: shardplane.NewRing(shardRingSlots, shardMaxFrame),
				sc:   xgwh.NewPacketScratch(),
			}
		}
	}
	if fc.Placement != nil {
		if err := s.enablePlacement(*fc.Placement, fc.SoftwareTenants, gwIP); err != nil {
			return nil, err
		}
	}
	if fc.SLO != nil {
		s.enableSLO(*fc.SLO, fc)
	}
	laddr, err := net.ResolveUDPAddr("udp", fc.Listen)
	if err != nil {
		return nil, err
	}
	s.conn, err = net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Sharded-mode ring geometry: slots hold one synthesized frame — the
// 9216-byte datagram budget plus outer Eth/IP/UDP headroom.
const (
	shardRingSlots = 1024
	shardMaxFrame  = 10240
)

// serve is the receive loop: one goroutine, run-to-completion per datagram —
// the chip processes packets one pipeline pass at a time, so a single loop
// models it faithfully while the socket provides backpressure. With
// workers > 1 the loop instead becomes the RSS dispatcher over per-worker
// rings (serveSharded).
func (s *server) serve() error {
	if s.workers > 1 {
		return s.serveSharded()
	}
	for {
		n, _, err := s.conn.ReadFromUDP(s.buf[:])
		if err != nil {
			return err
		}
		if err := s.handle(s.buf[:n]); err != nil {
			log.Printf("sailfish-gw: %v", err)
		}
	}
}

// serveSharded is the workers-mode receive loop: this goroutine plays the
// NIC RSS stage, hashing each datagram's flow onto its shard's SPSC ring;
// one worker goroutine per shard drains its ring run-to-completion through
// a private gateway scratch. The dispatch hash is the flow hash, so a
// flow's packets always land on one worker and per-flow state (SNAT, trace
// sampling, heavy hitters) keeps affinity. A full ring tail-drops the
// datagram, as a NIC RX queue would.
func (s *server) serveSharded() error {
	if s.pcap != nil {
		return fmt.Errorf("pcap capture requires the serial data path; set workers to 1")
	}
	var wg sync.WaitGroup
	for _, sh := range s.shards {
		wg.Add(1)
		go func(sh *gwShard) {
			defer wg.Done()
			// The dispatcher is the only pusher and sets closed after its
			// last push, so Consume strands no frame at shutdown.
			sh.ring.Consume(&s.closed, func(frame []byte, ns int64) {
				if err := s.process(sh.sc, frame, time.Unix(0, ns)); err != nil {
					log.Printf("sailfish-gw: %v", err)
				}
				sh.processed.Add(1)
			})
		}(sh)
	}
	var rerr error
	for {
		n, _, err := s.conn.ReadFromUDP(s.buf[:])
		if err != nil {
			rerr = err
			break
		}
		// Placement is gated off in this mode; the cycle hook only pumps
		// the SNAT standby sync, which the session store serializes itself.
		now := time.Now()
		s.maybeCycle(now)
		frame, err := s.synthesizeOuter(s.buf[:n])
		if err != nil {
			log.Printf("sailfish-gw: %v", err)
			continue
		}
		// Unparseable frames shard to 0 so the worker books the parse_error
		// drop under the normal taxonomy, exactly as internal/shardplane
		// dispatches for the region.
		sh := s.shards[0]
		var fm netpkt.FrontMeta
		if perr := netpkt.ParseFront(frame, &fm); perr == nil {
			sh = s.shards[shardplane.ShardIndex(fm.Flow.FastHash(), len(s.shards))]
		}
		if len(frame) > sh.ring.MaxPacket() {
			sh.oversize.Add(1)
			continue
		}
		if !sh.ring.Push(frame, now.UnixNano()) {
			sh.ringFull.Add(1)
		}
	}
	s.closed.Store(true)
	wg.Wait()
	return rerr
}

// send strips the outer encapsulation from a rewritten frame and transmits
// the VXLAN payload to the NC's underlay address, capturing the frame first
// when pcap is on (serial mode only). Safe for concurrent use: the UDP
// socket serializes writes.
func (s *server) send(nc netip.Addr, frame []byte, now time.Time) error {
	ua := s.underlay[nc]
	if ua == nil {
		return fmt.Errorf("no underlay address for NC %v", nc)
	}
	if s.pcap != nil {
		if err := s.pcap.WritePacket(now, frame); err != nil {
			return err
		}
	}
	out, err := vxlanPayload(frame)
	if err != nil {
		return err
	}
	_, err = s.conn.WriteToUDP(out, ua)
	return err
}

// handle processes one VXLAN datagram (VXLAN header + inner frame) on the
// serial data path, with one clock reading for the whole datagram.
func (s *server) handle(payload []byte) error {
	now := time.Now()
	s.maybeCycle(now)
	frame, err := s.synthesizeOuter(payload)
	if err != nil {
		return err
	}
	if s.pcap != nil {
		if err := s.pcap.WritePacket(now, frame); err != nil {
			return err
		}
	}
	return s.process(s.sc, frame, now)
}

// process is the daemon's single pass over one frame: the gateway's parser
// stage decodes it once into sc (booking parse_error itself), the
// heavy-hitter tracker is fed from the parsed packet (this daemon is one
// box, so cluster 0), and XGW-H, the DPU warm tier and the x86 software
// path all consume that parsed packet and its memoized flow hash.
func (s *server) process(sc *xgwh.PacketScratch, frame []byte, now time.Time) error {
	if err := s.gw.Parse(sc, frame, now); err != nil {
		s.sloDrop(0)
		return fmt.Errorf("dropped: parse_error")
	}
	pkt := sc.Packet()
	vni := pkt.VXLAN.VNI
	// The tracker locks internally; in workers mode flow affinity keeps
	// each flow's updates on one worker regardless.
	s.hh.Observe(0, vni, pkt.FlowHash(), pkt.InnerDst(), pkt.WireLen)
	var res xgwh.ForwardResult
	if err := s.gw.ProcessParsed(sc, now, &res); err != nil {
		s.sloDrop(vni)
		return err
	}
	switch res.Action {
	case xgwh.ActionForward:
		s.sloForward(vni)
		return s.send(res.NC, res.Out, now)
	case xgwh.ActionFallback:
		if s.workers > 1 {
			// Hold the lock across the send: the DPU's and x86's Out alias
			// per-device and per-node serialize buffers until their next
			// packet.
			s.fbMu.Lock()
			defer s.fbMu.Unlock()
		}
		// Three-tier ladder: a hardware table miss tries the DPU warm
		// tier first; service-steered traffic (SNAT) skips it, since the
		// stateful services live on x86 only.
		if res.FallbackMiss {
			s.sloFallbackMiss(vni)
		}
		if s.dpu != nil && res.FallbackMiss {
			// The device pick is the flow hash, the same dispatch the
			// region's lanes use, so a flow's DPU passes land on one
			// device's scratch.
			var dres xgwdpu.ForwardResult
			served, derr := s.dpu.ProcessParsedOn(int(pkt.FlowHash()%uint64(s.dpu.Devices())), pkt, now, &dres)
			if derr != nil {
				s.sloDrop(vni)
				return fmt.Errorf("dpu path: %w", derr)
			}
			if served {
				s.sloDPUServed(vni)
				return s.send(dres.NC, dres.Out, now)
			}
		}
		// A miss the DPU did not absorb is booked to x86 before the pool
		// runs, as the region's lanes do, so an x86 failure still keeps
		// FallbackMiss == DPUServed + FallbackMissX86 + dpu errors.
		if res.FallbackMiss {
			s.sloFallbackMissX86(vni)
		}
		// HW/SW co-design: the software node completes the long tail.
		var fres xgw86.FallbackResult
		if ferr := s.x86.ProcessParsed(pkt, now, &fres); ferr != nil {
			s.sloDrop(vni)
			return fmt.Errorf("software path: %w", ferr)
		}
		s.sloFallback(vni)
		return s.send(fres.NC, fres.Out, now)
	default:
		s.sloDrop(vni)
		return fmt.Errorf("dropped: %s", res.DropReason)
	}
}

// synthesizeOuter wraps the datagram payload in the outer headers the
// kernel consumed, so the gateway's parser sees a full frame.
func (s *server) synthesizeOuter(payload []byte) ([]byte, error) {
	if err := netpkt.SerializeLayers(s.sbuf, payload,
		&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
			SrcIP: netip.MustParseAddr("127.0.0.1"),
			DstIP: netip.MustParseAddr("127.0.0.1")},
		&netpkt.UDP{SrcPort: 49152, DstPort: netpkt.VXLANPort},
	); err != nil {
		return nil, err
	}
	return s.sbuf.Bytes(), nil
}

// vxlanPayload strips outer Eth/IP/UDP from a full frame, returning the
// VXLAN header + inner frame for UDP transmission.
func vxlanPayload(frame []byte) ([]byte, error) {
	var eth netpkt.Ethernet
	if err := eth.DecodeFromBytes(frame); err != nil {
		return nil, err
	}
	var l4 []byte
	switch eth.EtherType {
	case netpkt.EtherTypeIPv4:
		var ip netpkt.IPv4
		if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
			return nil, err
		}
		l4 = ip.Payload()
	case netpkt.EtherTypeIPv6:
		var ip netpkt.IPv6
		if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
			return nil, err
		}
		l4 = ip.Payload()
	default:
		return nil, netpkt.ErrNotVXLAN
	}
	var udp netpkt.UDP
	if err := udp.DecodeFromBytes(l4); err != nil {
		return nil, err
	}
	return udp.Payload(), nil
}

// --- demo mode ---

// runDemo wires a gateway and two NC listeners on loopback sockets, then
// sends VM-to-VM packets end to end over real UDP. A non-empty adminAddr
// additionally serves the admin plane for the demo's lifetime, so the live
// /metrics view can be watched while packets flow.
func runDemo(count int, adminAddr string) error {
	// NC listeners.
	nc1, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer nc1.Close()
	nc2, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer nc2.Close()

	fc := fileConfig{
		GatewayIP: "10.255.0.1",
		Listen:    "127.0.0.1:0",
		Underlay: map[string]string{
			"10.1.1.11": nc1.LocalAddr().String(),
			"10.1.1.12": nc2.LocalAddr().String(),
		},
		Tenants: []tenantConfig{{
			VNI: 100, Prefix: "192.168.10.0/24",
			VMs: map[string]string{
				"192.168.10.2": "10.1.1.11",
				"192.168.10.3": "10.1.1.12",
			},
		}},
	}
	srv, err := newServer(fc)
	if err != nil {
		return err
	}
	if adminAddr != "" {
		bound, stop, err := startAdmin(adminAddr, srv, srv.registerMetrics())
		if err != nil {
			return err
		}
		defer stop() //nolint:errcheck
		fmt.Printf("admin plane on http://%s\n", bound)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serve() //nolint:errcheck // returns when the socket closes
	}()

	gwAddr := srv.conn.LocalAddr().(*net.UDPAddr)
	fmt.Printf("gateway on %v; NC 10.1.1.11 → %v; NC 10.1.1.12 → %v\n",
		gwAddr, nc1.LocalAddr(), nc2.LocalAddr())

	// A vSwitch client sends VM 192.168.10.2 → VM 192.168.10.3.
	client, err := net.DialUDP("udp", nil, gwAddr)
	if err != nil {
		return err
	}
	defer client.Close()
	sbuf := netpkt.NewSerializeBuffer(64, 512)
	for i := 0; i < count; i++ {
		payload := []byte(fmt.Sprintf("hello-%d", i))
		if err := netpkt.SerializeLayers(sbuf, payload,
			&netpkt.VXLAN{VNI: 100},
			&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
			&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
				SrcIP: netip.MustParseAddr("192.168.10.2"),
				DstIP: netip.MustParseAddr("192.168.10.3")},
			&netpkt.UDP{SrcPort: 5000, DstPort: 6000},
		); err != nil {
			return err
		}
		if _, err := client.Write(sbuf.Bytes()); err != nil {
			return err
		}
	}

	// NC2 hosts the destination VM: it must receive every packet,
	// VXLAN-encapsulated, VNI intact.
	nc2.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	for i := 0; i < count; i++ {
		n, err := nc2.Read(buf)
		if err != nil {
			return fmt.Errorf("NC did not receive packet %d: %w", i, err)
		}
		var vx netpkt.VXLAN
		if err := vx.DecodeFromBytes(buf[:n]); err != nil {
			return err
		}
		var inner netpkt.Ethernet
		if err := inner.DecodeFromBytes(vx.Payload()); err != nil {
			return err
		}
		var ip netpkt.IPv4
		if err := ip.DecodeFromBytes(inner.Payload()); err != nil {
			return err
		}
		var udp netpkt.UDP
		if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
			return err
		}
		fmt.Printf("NC(10.1.1.12) got %v %v→%v payload=%q\n",
			vx.VNI, ip.SrcIP, ip.DstIP, udp.Payload())
	}
	// Stats are atomic snapshots: read them while the serve loop still runs,
	// then shut the socket down.
	st := srv.gw.Stats()
	fmt.Printf("gateway stats: forwarded=%d fallback=%d dropped=%d\n",
		st.Forwarded, st.Fallback, st.Dropped)
	srv.conn.Close()
	<-served
	return nil
}
