// Package xgw86 models XGW-x86, the legacy DPDK-based software gateway
// (§2.2): a multi-core run-to-completion forwarder whose NIC spreads flows
// onto CPU cores with receive-side scaling. It plays two roles in Sailfish:
//
//   - the fallback data plane holding volatile tables and huge stateful
//     tables (SNAT) that cannot fit in XGW-H (§4.2, Fig. 11) — implemented
//     behaviorally, packet in / packet out;
//   - the motivation study's subject (§2.3, Figs. 4-7): per-core load
//     accounting shows how flow hashing plus heavy hitters overloads single
//     cores while the node average stays low — implemented as a per-tick
//     load model driven by the simulator.
package xgw86

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/snat"
	"sailfish/internal/tables"
	"sailfish/internal/trace"
)

// Drop-reason codes, interned like the xgwh taxonomy: the data plane counts
// into a fixed array and the names only materialize on the slow path
// (Stats, /metrics, flight-recorder queries).
const (
	dropNone uint8 = iota
	dropParseError
	dropNoRoute
	dropNoVM
	dropNotIPv4
	dropSNATExhausted
	dropNoSession
	numDropReasons
)

// dropReasonName maps a drop code to its stable external name.
var dropReasonName = [numDropReasons]string{
	dropNone:          "",
	dropParseError:    "parse_error",
	dropNoRoute:       "no_route",
	dropNoVM:          "no_vm",
	dropNotIPv4:       "not_ipv4",
	dropSNATExhausted: "snat_exhausted",
	dropNoSession:     "no_session",
}

// DropReasonNames returns the stable taxonomy of software-path drop
// reasons, in code order.
func DropReasonNames() []string {
	out := make([]string, 0, numDropReasons-1)
	for code := 1; code < int(numDropReasons); code++ {
		out = append(out, dropReasonName[code])
	}
	return out
}

// Config sets the capacities of one XGW-x86 node.
type Config struct {
	// Cores is the number of packet-processing CPU cores.
	Cores int
	// CorePps is the packet rate one core sustains (DPDK run-to-
	// completion: ~1 Mpps per core, §2.2).
	CorePps float64
	// NICGbps is the node's aggregate NIC bandwidth.
	NICGbps float64
	// LatencyUs is the unloaded forwarding latency (Fig. 18(c): 40 µs).
	LatencyUs float64
	// PublicIPs is the SNAT public address pool.
	PublicIPs []netip.Addr
	// GatewayIP is the outer source for re-encapsulated packets.
	GatewayIP netip.Addr
}

// DefaultConfig matches the paper's hardware: 32 cores at ~0.78 Mpps
// (≈25 Mpps per node, the Fig. 18(b) baseline), 100G NICs, 40 µs latency.
func DefaultConfig() Config {
	return Config{
		Cores:     32,
		CorePps:   781_250,
		NICGbps:   100,
		LatencyUs: 40,
	}
}

// NodePps returns the node's aggregate packet-rate ceiling.
func (c Config) NodePps() float64 { return float64(c.Cores) * c.CorePps }

// Node is one XGW-x86 box. Not safe for concurrent use.
type Node struct {
	cfg Config

	// Full forwarding state in DRAM — the software gateway has no memory
	// pressure (§3.3: "storing the O(1M) tables is easy for the XGW-x86").
	Routes *tables.VXLANRoutingTable
	VMNC   *tables.VMNCTable
	ACL    *tables.ACL

	// snat is the survivable session service: a sharded store plus its
	// replicated standby. A pool of nodes behind the same public IPs
	// shares one service (cluster.NewRegion attaches it), so any node can
	// translate any session — the HyperNAT-style shared state that also
	// makes failover session-preserving.
	snat *snat.Service

	parser netpkt.Parser
	vpkt   netpkt.GatewayPacket
	ppkt   netpkt.PlainPacket
	sbuf   *netpkt.SerializeBuffer
	rw     reencapScratch

	stats nodeCounters

	// tr, when set, receives flight-recorder events (drops always, forward
	// verdicts by flow-hash sampling); trDev is this node's interned device
	// id in the recorder.
	tr    *trace.Recorder
	trDev uint16
}

// reencapScratch holds the preallocated header layers reencap and the SNAT
// outbound rewrite serialize through, so the fallback hot path does not
// allocate per packet. A packet takes one of the two, never both, so they
// share the cells.
type reencapScratch struct {
	eth    netpkt.Ethernet
	ip4    netpkt.IPv4
	ip6    netpkt.IPv6
	udp    netpkt.UDP
	tcp    netpkt.TCP
	vxlan  netpkt.VXLAN
	layers [4]netpkt.SerializableLayer
}

// Stats counts the node's behavioral outcomes.
type Stats struct {
	Forwarded     uint64
	SNATOut       uint64
	SNATIn        uint64
	Dropped       uint64
	SessionsAlive int
	// DropReasons breaks Dropped down by interned reason; the per-reason
	// sum equals Dropped.
	DropReasons map[string]uint64
}

// nodeCounters is the live atomic counter block: packet processing stays
// single-goroutine per node, but Stats() and the /metrics scrape read these
// while traffic flows.
type nodeCounters struct {
	forwarded atomic.Uint64
	snatOut   atomic.Uint64
	snatIn    atomic.Uint64
	dropped   atomic.Uint64
	drops     [numDropReasons]atomic.Uint64
}

// NewNode returns a node with empty tables.
func NewNode(cfg Config) *Node {
	if cfg.Cores <= 0 {
		cfg = DefaultConfig()
	}
	return &Node{
		cfg:    cfg,
		Routes: tables.NewVXLANRoutingTable(),
		VMNC:   tables.NewVMNCTable(),
		snat:   snat.NewService(snat.ServiceConfig{Store: snat.Config{PublicIPs: cfg.PublicIPs}}),
		ACL:    tables.NewACL(),
		sbuf:   netpkt.NewSerializeBuffer(128, 2048),
	}
}

// SNAT returns the serving (active) session store — the table the data
// plane translates against right now.
func (n *Node) SNAT() *snat.Store { return n.snat.Active() }

// SNATService returns the node's session service (store + standby +
// replication).
func (n *Node) SNATService() *snat.Service { return n.snat }

// AttachSNAT points the node at a shared session service. The region wires
// every XGW-x86 pool node to one service over the pooled public IPs, so a
// response hashed to a different node than the request still resolves its
// session. Attach before traffic starts.
func (n *Node) AttachSNAT(svc *snat.Service) {
	if svc != nil {
		n.snat = svc
	}
}

// Config returns the node's capacities.
func (n *Node) Config() Config { return n.cfg }

// Stats returns a snapshot of the behavioral counters. Every field —
// SessionsAlive included — is read from atomic counters (the session count
// sums the sharded store's per-shard atomics), so the snapshot is safe and
// coherent from any goroutine while traffic flows.
func (n *Node) Stats() Stats {
	s := Stats{
		Forwarded:     n.stats.forwarded.Load(),
		SNATOut:       n.stats.snatOut.Load(),
		SNATIn:        n.stats.snatIn.Load(),
		Dropped:       n.stats.dropped.Load(),
		SessionsAlive: n.snat.Sessions(),
		DropReasons:   make(map[string]uint64, numDropReasons-1),
	}
	for code := 1; code < int(numDropReasons); code++ {
		s.DropReasons[dropReasonName[code]] = n.stats.drops[code].Load()
	}
	return s
}

// EnableTracing attaches the node to a flight recorder under the given
// device name and registers the software-path drop taxonomy. Wire before
// traffic starts.
func (n *Node) EnableTracing(rec *trace.Recorder, device string) {
	n.tr = rec
	if rec != nil {
		n.trDev = rec.InternDevice(device)
		rec.SetReasonNames(trace.StageFallback, DropReasonNames())
	}
}

// traceEvent records a verdict into the flight recorder: drops always,
// forwards only when the flow hash is sampled.
func (n *Node) traceEvent(verdict trace.Verdict, code uint8, fh uint64, vni netpkt.VNI, now time.Time) {
	tr := n.tr
	if tr == nil {
		return
	}
	if verdict != trace.VerdictDrop && !tr.Sampled(fh) {
		return
	}
	tr.Record(trace.Event{
		TimeNs:   now.UnixNano(),
		FlowHash: fh,
		VNI:      vni,
		Dev:      n.trDev,
		Stage:    trace.StageFallback,
		Verdict:  verdict,
		Code:     code,
	})
}

// drop books one discarded packet under its interned reason and emits the
// always-on flight-recorder event.
func (n *Node) drop(code uint8, fh uint64, vni netpkt.VNI, now time.Time) {
	n.stats.dropped.Add(1)
	n.stats.drops[code].Add(1)
	n.traceEvent(trace.VerdictDrop, code, fh, vni, now)
}

// RegisterMetrics publishes the node's behavioral counters into a live
// registry under the given node label.
func (n *Node) RegisterMetrics(reg *metrics.Registry, node string) {
	l := metrics.Labels{"node": node}
	reg.CounterFunc("sailfish_x86_forwarded_total", "packets forwarded by the software path", l,
		n.stats.forwarded.Load)
	reg.CounterFunc("sailfish_x86_snat_out_total", "outbound SNAT translations", l,
		n.stats.snatOut.Load)
	reg.CounterFunc("sailfish_x86_snat_in_total", "inbound SNAT recoveries", l,
		n.stats.snatIn.Load)
	reg.CounterFunc("sailfish_x86_dropped_total", "packets dropped by the software path", l,
		n.stats.dropped.Load)
	for code := 1; code < int(numDropReasons); code++ {
		c := &n.stats.drops[code]
		reg.CounterFunc("sailfish_x86_drops_total", "software-path drops by reason",
			metrics.Labels{"node": node, "reason": dropReasonName[code]}, c.Load)
	}
}

// --- Behavioral data plane ---

// FallbackResult reports the outcome of software forwarding.
type FallbackResult struct {
	// Out is the emitted wire packet; valid until the next call.
	Out []byte
	// NC is the next hop (physical server or tunnel endpoint) for
	// re-encapsulated packets; unset for de-tunneled SNAT output.
	NC netip.Addr
	// ToInternet marks de-tunneled SNAT output.
	ToInternet bool
	LatencyUs  float64
}

// ProcessFallback forwards a VXLAN packet the hardware path could not
// (volatile routes, long-tail VMs): full software lookup and rewrite. now
// is the caller's clock; it timestamps flight-recorder events and ages
// SNAT sessions reached through service-scope routes. It parses into the
// node's scratch and runs ProcessParsed.
func (n *Node) ProcessFallback(raw []byte, now time.Time) (FallbackResult, error) {
	var out FallbackResult
	if err := n.parse(raw, now); err != nil {
		return out, err
	}
	err := n.ProcessParsed(&n.vpkt, now, &out)
	return out, err
}

// parse decodes raw into the node's scratch packet, booking a parse_error
// drop when it does not decode.
func (n *Node) parse(raw []byte, now time.Time) error {
	if err := n.parser.Parse(raw, &n.vpkt); err != nil {
		// n.vpkt holds the previous packet's fields after a failed parse, so
		// the drop event carries no flow identity.
		n.drop(dropParseError, 0, 0, now)
		return err
	}
	return nil
}

// ProcessParsed is the software path for a packet the caller already
// parsed — the single implementation behind ProcessFallback, and the entry
// a lane uses so a steered packet is not parsed again. Service-scope routes
// continue into the SNAT outbound translation on the same parsed packet. It
// overwrites *out whole; out.Out aliases the node's serialize buffer until
// its next packet; pkt stays the caller's (only its flow hash memo may be
// filled in).
func (n *Node) ProcessParsed(pkt *netpkt.GatewayPacket, now time.Time, out *FallbackResult) error {
	*out = FallbackResult{}
	vni, route, err := n.Routes.Resolve(pkt.VXLAN.VNI, pkt.InnerDst())
	if err != nil {
		n.drop(dropNoRoute, pkt.FlowHash(), pkt.VXLAN.VNI, now)
		return err
	}
	var nc netip.Addr
	switch route.Scope {
	case tables.ScopeLocal:
		var ok bool
		nc, ok = n.VMNC.Lookup(vni, pkt.InnerDst())
		if !ok {
			n.drop(dropNoVM, pkt.FlowHash(), vni, now)
			return tables.ErrNoRoute
		}
	case tables.ScopeRemote:
		nc = route.Tunnel
	case tables.ScopeService:
		// SNAT traffic reaching the generic fallback entry point.
		return n.snatOutbound(pkt, now, out)
	}
	b, err := n.reencap(pkt.VXLAN.Payload(), vni, nc, pkt.OuterUDP.SrcPort)
	if err != nil {
		return err
	}
	n.stats.forwarded.Add(1)
	n.traceEvent(trace.VerdictForward, 0, pkt.FlowHash(), vni, now)
	out.Out, out.NC, out.LatencyUs = b, nc, n.cfg.LatencyUs
	return nil
}

// ProcessSNATOutbound implements the red arrow of Fig. 11: a VM's packet to
// the public network. The session five-tuple is translated to a public
// (IP, port), the inner source is rewritten, the VXLAN tunnel is removed and
// the plain packet is emitted toward the Internet.
func (n *Node) ProcessSNATOutbound(raw []byte, now time.Time) (FallbackResult, error) {
	var out FallbackResult
	if err := n.parse(raw, now); err != nil {
		return out, err
	}
	err := n.snatOutbound(&n.vpkt, now, &out)
	return out, err
}

// snatOutbound translates a parsed packet's session and serializes the
// de-tunneled frame through the node's header scratch, so the translation
// allocates nothing per packet.
func (n *Node) snatOutbound(pkt *netpkt.GatewayPacket, now time.Time, out *FallbackResult) error {
	if !pkt.HasL4 || pkt.InnerIsV6 {
		// Production SNAT is IPv4; v6 uses different prefixes entirely.
		n.drop(dropNotIPv4, pkt.FlowHash(), pkt.VXLAN.VNI, now)
		return netpkt.ErrNotVXLAN
	}
	key := tables.SNATKey{VNI: pkt.VXLAN.VNI, Flow: pkt.InnerFlow()}
	// Translate refreshes the idle stamp itself; no separate Touch.
	bind, err := n.snat.Active().Translate(key, now)
	if err != nil {
		n.drop(dropSNATExhausted, pkt.FlowHash(), key.VNI, now)
		return err
	}
	// Rebuild the inner frame with the translated source.
	f := key.Flow
	s := &n.rw
	s.eth = netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4}
	s.ip4 = netpkt.IPv4{TTL: 63, Protocol: f.Proto, SrcIP: bind.PublicIP, DstIP: f.Dst}
	s.layers[0], s.layers[1] = &s.eth, &s.ip4
	var payload []byte
	if f.Proto == netpkt.IPProtocolTCP {
		s.tcp = pkt.InnerTCP
		s.tcp.SrcPort = bind.PublicPort
		payload = pkt.InnerTCP.Payload()
		s.layers[2] = &s.tcp
	} else {
		s.udp = pkt.InnerUDP
		s.udp.SrcPort = bind.PublicPort
		payload = pkt.InnerUDP.Payload()
		s.layers[2] = &s.udp
	}
	if err := netpkt.SerializeLayers(n.sbuf, payload, s.layers[:3]...); err != nil {
		return err
	}
	n.stats.snatOut.Add(1)
	n.traceEvent(trace.VerdictForward, 0, pkt.FlowHash(), key.VNI, now)
	out.Out, out.ToInternet, out.LatencyUs = n.sbuf.Bytes(), true, n.cfg.LatencyUs
	return nil
}

// ProcessSNATInbound implements the blue arrow of Fig. 11: a response from
// the public network arrives at the public (IP, port); the session is
// recovered, the destination rewritten back to the VM, and the packet is
// re-encapsulated toward the VM's NC.
func (n *Node) ProcessSNATInbound(raw []byte, now time.Time) (FallbackResult, error) {
	if err := n.parser.ParsePlain(raw, &n.ppkt); err != nil {
		n.drop(dropParseError, 0, 0, now)
		return FallbackResult{}, err
	}
	if !n.ppkt.HasL4 || n.ppkt.IsV6 {
		n.drop(dropNotIPv4, 0, 0, now)
		return FallbackResult{}, netpkt.ErrNotVXLAN
	}
	f := n.ppkt.Flow()
	bind := tables.SNATBinding{PublicIP: f.Dst, PublicPort: f.DstPort}
	// ReverseLookup refreshes the session's idle stamp itself.
	key, ok := n.snat.Active().ReverseLookup(bind, f.Src, f.SrcPort, f.Proto, now)
	if !ok {
		n.drop(dropNoSession, f.FastHash(), 0, now)
		return FallbackResult{}, tables.ErrNoRoute
	}
	nc, ok := n.VMNC.Lookup(key.VNI, key.Flow.Src)
	if !ok {
		n.drop(dropNoVM, key.Flow.FastHash(), key.VNI, now)
		return FallbackResult{}, tables.ErrNoRoute
	}
	// Rebuild the inner frame with the original private destination.
	layers := []netpkt.SerializableLayer{
		&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		&netpkt.IPv4{TTL: 63, Protocol: f.Proto, SrcIP: f.Src, DstIP: key.Flow.Src},
	}
	var payload []byte
	if f.Proto == netpkt.IPProtocolTCP {
		t := n.ppkt.TCP
		t.DstPort = key.Flow.SrcPort
		payload = n.ppkt.TCP.Payload()
		layers = append(layers, &t)
	} else {
		u := n.ppkt.UDP
		u.DstPort = key.Flow.SrcPort
		payload = n.ppkt.UDP.Payload()
		layers = append(layers, &u)
	}
	inner := netpkt.NewSerializeBuffer(64, len(raw))
	if err := netpkt.SerializeLayers(inner, payload, layers...); err != nil {
		return FallbackResult{}, err
	}
	out, err := n.reencap(inner.Bytes(), key.VNI, nc, 0xC000|uint16(key.Flow.FastHash()&0x3FFF))
	if err != nil {
		return FallbackResult{}, err
	}
	n.stats.snatIn.Add(1)
	n.traceEvent(trace.VerdictForward, 0, key.Flow.FastHash(), key.VNI, now)
	return FallbackResult{Out: out, NC: nc, LatencyUs: n.cfg.LatencyUs}, nil
}

// ExpireSessions ages out SNAT sessions idle for ttl at the given instant,
// returning the number released — the full sweep, kept for callers that can
// afford it (tests, quiesced nodes).
func (n *Node) ExpireSessions(now time.Time, ttl time.Duration) int {
	return n.snat.Active().ExpireIdle(now, ttl)
}

// ReapSessions is the incremental aging tick a production node runs
// instead: it scans at most budget slots from the store's persistent
// cursors, so a 100M-session table ages in bounded slices rather than one
// stall-the-world sweep.
func (n *Node) ReapSessions(now time.Time, ttl time.Duration, budget int) int {
	return n.snat.Active().ReapIdle(now, ttl, budget)
}

// reencap wraps an inner frame in fresh VXLAN/UDP/IP/Ethernet headers. The
// headers live in the node's scratch; full struct assignment resets any
// state from the previous packet.
func (n *Node) reencap(inner []byte, vni netpkt.VNI, dst netip.Addr, srcPort uint16) ([]byte, error) {
	s := &n.rw
	s.eth = netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4}
	if dst.Is6() {
		s.eth.EtherType = netpkt.EtherTypeIPv6
		s.ip6 = netpkt.IPv6{NextHeader: netpkt.IPProtocolUDP, HopLimit: 64,
			SrcIP: n.cfg.GatewayIP, DstIP: dst}
		s.layers[1] = &s.ip6
	} else {
		s.ip4 = netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
			SrcIP: n.cfg.GatewayIP, DstIP: dst}
		s.layers[1] = &s.ip4
	}
	s.udp = netpkt.UDP{SrcPort: srcPort, DstPort: netpkt.VXLANPort}
	s.vxlan = netpkt.VXLAN{VNI: vni}
	s.layers[0], s.layers[2], s.layers[3] = &s.eth, &s.udp, &s.vxlan
	if err := netpkt.SerializeLayers(n.sbuf, inner, s.layers[:]...); err != nil {
		return nil, err
	}
	return n.sbuf.Bytes(), nil
}

// AnswerPing handles a health-monitoring ICMP echo request aimed at the
// gateway VIP (the ASIC punts VIP-destined ICMP to the software path): it
// returns the echo reply frame, or an error for non-echo/non-VIP input.
func (n *Node) AnswerPing(raw []byte) ([]byte, error) {
	if err := n.parser.ParsePlain(raw, &n.ppkt); err != nil {
		return nil, err
	}
	if n.ppkt.IsV6 || n.ppkt.IPv4.Protocol != netpkt.IPProtocolICMP {
		return nil, netpkt.ErrNotVXLAN
	}
	if n.ppkt.IPv4.DstIP != n.cfg.GatewayIP {
		return nil, fmt.Errorf("xgw86: ping for %v, VIP is %v", n.ppkt.IPv4.DstIP, n.cfg.GatewayIP)
	}
	var echo netpkt.ICMPEcho
	if err := echo.DecodeFromBytes(n.ppkt.IPv4.Payload()); err != nil {
		return nil, err
	}
	if echo.Type != netpkt.ICMPEchoRequest {
		return nil, fmt.Errorf("xgw86: ICMP type %d is not an echo request", echo.Type)
	}
	reply := netpkt.ICMPEcho{Type: netpkt.ICMPEchoReply, ID: echo.ID, Seq: echo.Seq}
	if err := netpkt.SerializeLayers(n.sbuf, echo.Payload(),
		&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolICMP,
			SrcIP: n.cfg.GatewayIP, DstIP: n.ppkt.IPv4.SrcIP},
		&reply,
	); err != nil {
		return nil, err
	}
	return n.sbuf.Bytes(), nil
}
