package xgwh

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"sailfish/internal/digest"
	"sailfish/internal/metrics"
	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
	"sailfish/internal/telemetry"
	"sailfish/internal/tofino"
	"sailfish/internal/trace"
)

// Action is the gateway's verdict on a packet.
type Action int

const (
	// ActionForward: the packet was rewritten and forwarded to an NC or
	// remote tunnel endpoint.
	ActionForward Action = iota
	// ActionFallback: the packet is steered to an XGW-x86 node (§4.2).
	ActionFallback
	// ActionDrop: the packet was discarded (ACL deny, routing loop,
	// fallback rate limit).
	ActionDrop
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActionForward:
		return "forward"
	case ActionFallback:
		return "fallback"
	case ActionDrop:
		return "drop"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Drop-reason codes. The data plane counts drops in a fixed array indexed by
// these codes — interning the reason names keeps the per-packet drop path free
// of string building and map hashing; the names only materialize on the slow
// path (Stats, ForwardResult, telemetry postcards use the precomputed
// strings).
const (
	dropNone uint8 = iota
	dropParseError
	dropMeterExceeded
	dropRouteLoop
	dropACLDeny
	dropFallbackRateLimit
	dropNoNC
	numDropReasons
)

// dropReasonName maps a drop code to its stable external name.
var dropReasonName = [numDropReasons]string{
	dropNone:              "",
	dropParseError:        "parse_error",
	dropMeterExceeded:     "meter_exceeded",
	dropRouteLoop:         "route_loop",
	dropACLDeny:           "acl_deny",
	dropFallbackRateLimit: "fallback_rate_limit",
	dropNoNC:              "no_nc",
}

// dropAction holds the precomputed telemetry action string per drop code.
var dropAction = func() (a [numDropReasons]string) {
	for i := 1; i < int(numDropReasons); i++ {
		a[i] = "drop:" + dropReasonName[i]
	}
	return a
}()

// ForwardResult reports the outcome of processing one packet.
type ForwardResult struct {
	Action     Action
	DropReason string
	// FallbackMiss reports that an ActionFallback verdict came from a table
	// miss (route or VM absent from hardware) rather than service-VNI
	// steering — the signal separating partial-residency traffic from
	// traffic that belongs on the software path by design.
	FallbackMiss bool
	// NC is the rewritten outer destination (the physical server, or the
	// remote-region tunnel endpoint). Valid when Action == ActionForward.
	NC netip.Addr
	// Out is the rewritten wire packet. The slice is only valid until the
	// next ProcessPacket call.
	Out []byte
	// Unit is the folded pipe pair that carried the packet (0 → egress
	// pipe 1, 1 → egress pipe 3), selected by VNI parity when entries are
	// split between pipelines.
	Unit      int
	Passes    int
	LatencyNs float64
	WireBytes int
}

// Config assembles a gateway.
type Config struct {
	Chip tofino.ChipConfig
	// Folded enables pipeline folding (production configuration).
	Folded bool
	// SplitPipes splits traffic between the folded units by VNI parity.
	SplitPipes bool
	// SplitByIP switches the unit-selection key from VNI parity to inner
	// destination parity — the paper's other suggested split key ("we can
	// split entries according to the parity of VNI or inner Dst IP").
	SplitByIP bool
	// GatewayIP is the outer source address of rewritten packets.
	GatewayIP netip.Addr
	// FallbackRateBps rate-limits traffic steered to XGW-x86; 0 disables
	// the limiter (§4.2: overload protection for the software path).
	FallbackRateBps float64
	// FallbackBurstBytes is the limiter's bucket depth.
	FallbackBurstBytes float64
	// ALPMRoutes selects the hardware routing engine: per-VNI ALPM
	// structures (TCAM pivot index + SRAM buckets) instead of the plain
	// trie. Lookup results are identical; this exercises the §4.4
	// structure end to end, including incremental updates. Equivalent to
	// RouteEngine = RouteEngineALPM; RouteEngine wins when both are set.
	ALPMRoutes bool
	// RouteEngine selects the LPM backend for every routing table:
	// RouteEngineTrie (default), RouteEngineALPM, or RouteEngineMashUp.
	// Lookup results are identical across engines; they differ in
	// TCAM/SRAM occupancy and update cost.
	RouteEngine RouteEngine
	// RouteEngineFor, when set, chooses the backend per (VNI, family)
	// table — the controller's per-tenant knob: small tenants on ALPM
	// buckets, million-route tenants on MashUp tiles. Overrides
	// RouteEngine/ALPMRoutes. Returning "" falls back to ALPM.
	RouteEngineFor func(vni netpkt.VNI, is6 bool) RouteEngine
}

// UnitStats accumulates per-folded-unit traffic for the pipeline-balance
// figures (Figs. 20-21).
type UnitStats struct {
	Packets uint64
	Bytes   uint64
}

// Stats is a snapshot of the gateway's counters.
type Stats struct {
	Forwarded  uint64
	Fallback   uint64
	Dropped    uint64
	TotalBytes uint64
	// FallbackBytes is the volume steered to XGW-x86 (Fig. 22).
	FallbackBytes uint64
	// FallbackMiss is the fallback subset caused by hardware table misses
	// (partial residency), not service-VNI steering.
	FallbackMiss uint64
	Units        [2]UnitStats
	DropReasons  map[string]uint64
}

// Gateway is one XGW-H node: the chip forwarding model programmed with the
// Sailfish tables. ProcessPacket drives the gateway's own embedded scratch
// and is single-goroutine, as each physical box is one chip. Region lanes
// enter the same tables concurrently via ProcessParsed (or
// ProcessPacketWith), one PacketScratch per lane: every table on that path
// is either read-pure (trie/ALPM, VM-NC digest, ACL, service-VNI set —
// control-plane writes happen before traffic) or internally synchronized
// (meters, counters, stats, trace, telemetry).
type Gateway struct {
	cfg    Config
	device *tofino.Device

	routes   routeLookup
	vmnc     *digest.Table[netip.Addr]
	acl      *tables.ACL
	meter    *tables.Meter // per-tenant SLA shapes
	fbMeter  *tables.Meter // fallback-path overload protection
	counters *tables.Counters
	snatVNIs map[netpkt.VNI]bool
	// tenantGen records the last table-push generation acknowledged per
	// tenant; the controller uses it for idempotent re-pushes (§6.1: a
	// retried population must not double-apply, and a stale ack must not
	// mask a lost one).
	tenantGen map[netpkt.VNI]uint64

	// scratch is the gateway's own per-packet state, used by ProcessPacket —
	// the single-goroutine entry point. Concurrent callers bring their own
	// scratch through ProcessPacketWith or ProcessParsed.
	scratch PacketScratch

	// stats is the live atomic counter block (see stats.go): written by the
	// data-plane goroutines, readable by any goroutine at any time.
	stats gwCounters
	// obs, when set, receives per-stage latency observations (parse,
	// pipeline, rewrite) into preallocated atomic histograms.
	obs *metrics.StageHistograms

	// Telemetry (vtrace-style postcards, §3.1): when enabled, packets
	// matching the rule table produce per-hop reports to the collector.
	telemetryID      string
	telemetryMatch   *telemetry.Matcher
	telemetryCollect *telemetry.Collector
	telemetrySeq     atomic.Uint64

	// tr, when set, receives flight-recorder events: every drop, plus
	// hash-sampled forward/fallback verdicts. trDev is this node's interned
	// device id in the recorder.
	tr    *trace.Recorder
	trDev uint16
}

// PacketScratch is the per-caller packet-processing state: the parser, parsed
// packet, pipeline context, serialize buffer and rewrite headers that one
// run-to-completion worker reuses for every packet. A Gateway embeds one for
// its single-goroutine ProcessPacket path; every region lane (and each
// sailfish-gw worker) owns one, parses each packet into it once, and drives
// the shared tables through ProcessParsed. A scratch must never be used by
// two goroutines at once.
type PacketScratch struct {
	parser netpkt.Parser
	pkt    netpkt.GatewayPacket
	ctx    tofino.Context
	sbuf   *netpkt.SerializeBuffer
	rw     rewriteScratch
	// tr, when non-nil, overrides the gateway's wired recorder for events
	// emitted while processing with this scratch — each shard records into
	// its own recorder and the scrape path merges them. Device ids stay
	// valid across recorders because shard recorders intern the same
	// device set in the same order.
	tr *trace.Recorder
}

// NewPacketScratch returns a scratch ready for Parse and ProcessPacketWith.
func NewPacketScratch() *PacketScratch {
	return &PacketScratch{sbuf: netpkt.NewSerializeBuffer(128, 2048)}
}

// Parse decodes raw into the scratch's packet without touching any gateway
// — the one full parse a lane makes per packet before steering it. The
// parsed packet then feeds ProcessParsed and the DPU and x86 tiers.
func (sc *PacketScratch) Parse(raw []byte) error { return sc.parser.Parse(raw, &sc.pkt) }

// Packet returns the scratch's parsed packet, valid after a successful
// Parse until the scratch's next one.
func (sc *PacketScratch) Packet() *netpkt.GatewayPacket { return &sc.pkt }

// SetRecorder points events produced through this scratch at rec instead of
// the gateway's wired recorder (nil restores the gateway's). Set before the
// scratch carries traffic.
func (sc *PacketScratch) SetRecorder(rec *trace.Recorder) { sc.tr = rec }

// EnableTelemetry attaches the device to a vtrace-style collector: packets
// matching the rule table emit postcards under the given device id.
func (g *Gateway) EnableTelemetry(deviceID string, m *telemetry.Matcher, c *telemetry.Collector) {
	g.telemetryID = deviceID
	g.telemetryMatch = m
	g.telemetryCollect = c
}

// EnableTracing attaches the node to a flight recorder under the given
// device name and registers the gateway drop-reason taxonomy. Wire before
// traffic starts; the data-plane goroutine reads g.tr without synchronizing.
func (g *Gateway) EnableTracing(rec *trace.Recorder, device string) {
	g.tr = rec
	if rec != nil {
		g.trDev = rec.InternDevice(device)
		rec.SetReasonNames(trace.StageGateway, DropReasonNames())
	}
}

// recorder resolves the flight recorder for events emitted from sc: the
// scratch's per-shard override when set, the gateway's wired one otherwise.
func (g *Gateway) recorder(sc *PacketScratch) *trace.Recorder {
	if sc.tr != nil {
		return sc.tr
	}
	return g.tr
}

// traceEvent records sc's packet verdict in the flight recorder: always for
// drops, by deterministic flow-hash sampling otherwise. The flow hash comes
// from the parse-time cache, so a traced-but-sampled-out packet costs one
// hash and no allocation.
func (g *Gateway) traceEvent(sc *PacketScratch, verdict trace.Verdict, code uint8, now time.Time) {
	tr := g.recorder(sc)
	if tr == nil {
		return
	}
	fh := sc.pkt.FlowHash()
	if verdict != trace.VerdictDrop && !tr.Sampled(fh) {
		return
	}
	tr.Record(trace.Event{
		TimeNs:   now.UnixNano(),
		FlowHash: fh,
		VNI:      sc.pkt.VXLAN.VNI,
		Dev:      g.trDev,
		Stage:    trace.StageGateway,
		Verdict:  verdict,
		Code:     code,
	})
}

// reportTelemetry emits the postcard for sc's packet if traced.
func (g *Gateway) reportTelemetry(sc *PacketScratch, action string, now time.Time) {
	if g.telemetryMatch == nil || g.telemetryCollect == nil {
		return
	}
	if !g.telemetryMatch.Match(sc.pkt.VXLAN.VNI, sc.pkt.InnerDst()) {
		return
	}
	g.telemetryCollect.Report(telemetry.HopReport{
		Device: g.telemetryID,
		Flow: telemetry.FlowKey{
			VNI: sc.pkt.VXLAN.VNI,
			Src: sc.pkt.InnerSrc(),
			Dst: sc.pkt.InnerDst(),
		},
		Seq:    g.telemetrySeq.Add(1),
		Action: action,
		TimeNs: now.UnixNano(),
	})
}

// New returns a gateway with empty tables, programmed per the Sailfish
// segment layout: classification and routing on the entry pass, VM-NC on the
// loopback egress, ACL and accounting on the loopback ingress, rewrite on
// exit.
func New(cfg Config) *Gateway {
	var routes routeLookup = trieRouting{tables.NewVXLANRoutingTable()}
	switch {
	case cfg.RouteEngineFor != nil:
		pick := cfg.RouteEngineFor
		routes = newLPMRouting(func(vni netpkt.VNI, is6 bool) RouteEngine {
			if e := pick(vni, is6); e != "" {
				return e
			}
			return RouteEngineALPM
		})
	case cfg.RouteEngine != "" && cfg.RouteEngine != RouteEngineTrie:
		engine := cfg.RouteEngine
		routes = newLPMRouting(func(netpkt.VNI, bool) RouteEngine { return engine })
	case cfg.ALPMRoutes:
		routes = newALPMRouting()
	}
	g := &Gateway{
		cfg:       cfg,
		device:    tofino.NewDevice(cfg.Chip, cfg.Folded),
		routes:    routes,
		vmnc:      digest.New[netip.Addr](),
		acl:       tables.NewACL(),
		meter:     tables.NewMeter(),
		fbMeter:   tables.NewMeter(),
		counters:  tables.NewCounters(),
		snatVNIs:  make(map[netpkt.VNI]bool),
		tenantGen: make(map[netpkt.VNI]uint64),
	}
	g.scratch.sbuf = netpkt.NewSerializeBuffer(128, 2048)
	g.device.BridgedMetadataBytes = 8
	// The fallback limiter's shape is fixed at assembly time (§4.2); the
	// data plane only spends tokens.
	g.fbMeter.DefaultRate = cfg.FallbackRateBps
	g.fbMeter.DefaultBurst = cfg.FallbackBurstBytes

	entry := tofino.SegIngressEntry
	vmncSeg := tofino.SegEgressExit
	aclSeg := tofino.SegEgressExit
	if cfg.Folded {
		vmncSeg = tofino.SegEgressLoop
		aclSeg = tofino.SegIngressLoop
	}
	must := func(err error) {
		if err != nil {
			panic(err) // programming error: segment/mode mismatch
		}
	}
	must(g.device.AddTable(entry, execFunc{"snat_steer", g.execClassify}))
	must(g.device.AddTable(entry, execFunc{"meter", g.execMeter}))
	must(g.device.AddTable(entry, execFunc{"vxlan_routing", g.execRoute}))
	must(g.device.AddTable(vmncSeg, execFunc{"vm_nc", g.execVMNC}))
	must(g.device.AddTable(aclSeg, execFunc{"acl", g.execACL}))
	return g
}

// execFunc adapts a method to tofino.TableExec.
type execFunc struct {
	name string
	fn   func(*tofino.Context) error
}

func (e execFunc) Name() string                      { return e.name }
func (e execFunc) Execute(ctx *tofino.Context) error { return e.fn(ctx) }

// --- Control-plane installation API (driven by the controller) ---

// InstallRoute adds a VXLAN route.
func (g *Gateway) InstallRoute(vni netpkt.VNI, p netip.Prefix, r tables.Route) error {
	return g.routes.Insert(vni, p, r)
}

// RemoveRoute deletes a VXLAN route.
func (g *Gateway) RemoveRoute(vni netpkt.VNI, p netip.Prefix) bool {
	return g.routes.Delete(vni, p)
}

// GetRoute returns the route installed for exactly (vni, prefix) — the
// introspection the controller's consistency and reconciliation sweeps use.
func (g *Gateway) GetRoute(vni netpkt.VNI, p netip.Prefix) (tables.Route, bool) {
	return g.routes.Get(vni, p)
}

// LookupVM returns the NC installed for (vni, vm).
func (g *Gateway) LookupVM(vni netpkt.VNI, vm netip.Addr) (netip.Addr, bool) {
	return g.vmnc.Lookup(vni, vm)
}

// InstallVM maps (vni, vm) to its hosting NC.
func (g *Gateway) InstallVM(vni netpkt.VNI, vm, nc netip.Addr) {
	g.vmnc.Insert(vni, vm, nc)
}

// RemoveVM deletes a VM mapping.
func (g *Gateway) RemoveVM(vni netpkt.VNI, vm netip.Addr) bool {
	return g.vmnc.Delete(vni, vm)
}

// SetTenantGeneration records the table-push generation the node has fully
// applied for a tenant. The controller stamps it after a successful push and
// checks it on retry, making re-pushes idempotent.
func (g *Gateway) SetTenantGeneration(vni netpkt.VNI, gen uint64) {
	g.tenantGen[vni] = gen
}

// TenantGeneration returns the last fully-applied push generation for the
// tenant (0 = never pushed).
func (g *Gateway) TenantGeneration(vni netpkt.VNI) uint64 {
	return g.tenantGen[vni]
}

// InstallACL adds a tenant ACL rule.
func (g *Gateway) InstallACL(vni netpkt.VNI, r tables.ACLRule) {
	g.acl.Insert(vni, r)
}

// MarkServiceVNI registers a special VNI tag whose traffic requires a
// software service (e.g. SNAT) and is steered to XGW-x86.
func (g *Gateway) MarkServiceVNI(vni netpkt.VNI) { g.snatVNIs[vni] = true }

// InstallShape installs a per-tenant token-bucket rate limit — the QoS
// "meter" service table installed per SLA (§3.3). Nonconforming packets are
// dropped with reason "meter_exceeded".
func (g *Gateway) InstallShape(vni netpkt.VNI, bytesPerSec, burstBytes float64) {
	g.meter.SetShape(vni, bytesPerSec, burstBytes)
}

// TenantCounters reads a tenant's packet/byte counters (the per-SLA counter
// table the controller polls).
func (g *Gateway) TenantCounters(vni netpkt.VNI) (pkts, bytes uint64) {
	return g.counters.Read(vni)
}

// RouteCount returns the number of installed VXLAN routes.
func (g *Gateway) RouteCount() int { return g.routes.Len() }

// VMCount returns the number of installed VM-NC mappings.
func (g *Gateway) VMCount() int { return g.vmnc.Len() }

// VMNCStats exposes the digest-table shape (pooled vs conflict entries).
func (g *Gateway) VMNCStats() digest.Stats { return g.vmnc.Stats() }

// Device exposes the underlying chip model (for perf queries).
func (g *Gateway) Device() *tofino.Device { return g.device }

// ALPMRouteStats reports the routing engine's bucket/tile shape when a
// hardware LPM engine (ALPM or MashUp) is active (ok=false under the trie
// engine).
func (g *Gateway) ALPMRouteStats() (s ALPMStats, ok bool) {
	a, isLPM := g.routes.(*lpmRouting)
	if !isLPM {
		return s, false
	}
	st := a.stats()
	return ALPMStats{
		Pivots:        st.TCAMEntries,
		Buckets:       st.Buckets,
		SRAMSlots:     st.SRAMEntries,
		StoredEntries: st.StoredEntries,
		Replicated:    st.Replicated,
	}, true
}

// ALPMStats summarizes the live hardware LPM routing structure. Under
// MashUp, Pivots counts only root tiles (chained tiles need no TCAM row),
// so Pivots < Buckets.
type ALPMStats struct {
	Pivots        int
	Buckets       int
	SRAMSlots     int
	StoredEntries int
	// Replicated counts stored copies beyond one per logical route
	// (ancestor fallbacks).
	Replicated int
}

// --- Data plane ---

// execClassify steers special service VNIs to the software path.
func (g *Gateway) execClassify(ctx *tofino.Context) error {
	if g.snatVNIs[ctx.Pkt.VXLAN.VNI] {
		ctx.ToFallback = true
	}
	return nil
}

// execMeter applies the tenant's SLA shape at the entry pass. The packet
// clock rides in the context so concurrent pipeline entries each carry their
// own.
func (g *Gateway) execMeter(ctx *tofino.Context) error {
	if !g.meter.Allow(ctx.Pkt.VXLAN.VNI, ctx.Pkt.WireLen, ctx.Now) {
		ctx.Drop = true
		ctx.DropCode = dropMeterExceeded
	}
	return nil
}

// execRoute resolves the VXLAN routing table, following peer chains.
func (g *Gateway) execRoute(ctx *tofino.Context) error {
	if ctx.ToFallback {
		return nil
	}
	vni, r, hops, err := g.routes.ResolveN(ctx.Pkt.VXLAN.VNI, ctx.Pkt.InnerDst())
	// Each peer hop beyond the first lookup recirculates the packet.
	if hops > 1 {
		ctx.Recirculations += hops - 1
	}
	switch err {
	case nil:
		ctx.FinalVNI, ctx.Route, ctx.RouteOK = vni, r, true
		if r.Scope == tables.ScopeService {
			ctx.ToFallback = true
		}
	case tables.ErrNoRoute:
		// Volatile or long-tail entries live in XGW-x86 (§4.2). Unlike
		// service-VNI steering this is a residency miss, which the placement
		// loop's coverage accounting needs to see.
		ctx.ToFallback = true
		ctx.FallbackMiss = true
	case tables.ErrRouteLoop:
		ctx.Drop = true
		ctx.DropCode = dropRouteLoop
	default:
		return err
	}
	return nil
}

// execVMNC finds the physical server hosting the destination VM.
func (g *Gateway) execVMNC(ctx *tofino.Context) error {
	if ctx.ToFallback || !ctx.RouteOK {
		return nil
	}
	switch ctx.Route.Scope {
	case tables.ScopeLocal:
		nc, ok := g.vmnc.Lookup(ctx.FinalVNI, ctx.Pkt.InnerDst())
		if !ok {
			// Mapping not in hardware: long-tail VM handled in software.
			ctx.ToFallback = true
			ctx.FallbackMiss = true
			return nil
		}
		ctx.NCAddr, ctx.NCOK = nc, true
	case tables.ScopeRemote:
		ctx.NCAddr, ctx.NCOK = ctx.Route.Tunnel, true
	}
	return nil
}

// execACL applies tenant ACLs; deny drops the packet.
func (g *Gateway) execACL(ctx *tofino.Context) error {
	if ctx.Drop || ctx.ToFallback {
		return nil
	}
	if g.acl.Check(ctx.Pkt.VXLAN.VNI, ctx.Pkt.InnerFlow()) == tables.ACLDeny {
		ctx.Drop = true
		ctx.DropCode = dropACLDeny
	}
	return nil
}

// unitFor selects the folded unit carrying the packet: VNI parity (or
// inner-destination parity with SplitByIP) when splitting is enabled
// (§4.4: "split the entries according to the parity of VNI or inner Dst
// IP"), unit 0 otherwise.
func (g *Gateway) unitFor(sc *PacketScratch, vni netpkt.VNI) int {
	if !g.cfg.SplitPipes {
		return 0
	}
	if g.cfg.SplitByIP {
		dst := sc.pkt.InnerDst()
		if dst.Is4() {
			b := dst.As4()
			return int(b[3] & 1)
		}
		b := dst.As16()
		return int(b[15] & 1)
	}
	return int(vni & 1)
}

// ProcessPacket runs one wire packet through the gateway using the gateway's
// embedded scratch — the single-goroutine entry point. now drives the
// fallback rate limiter; pass the simulation clock.
func (g *Gateway) ProcessPacket(raw []byte, now time.Time) (ForwardResult, error) {
	return g.ProcessPacketWith(&g.scratch, raw, now)
}

// ProcessPacketWith runs one wire packet through the gateway using the
// caller's scratch: Parse, then ProcessParsed. Distinct scratches may enter
// the gateway concurrently — this is how the sharded software plane drives
// one node from N shard workers while a flow's packets stay on one shard.
// The result's Out slice aliases sc's serialize buffer and is valid until
// sc's next packet.
func (g *Gateway) ProcessPacketWith(sc *PacketScratch, raw []byte, now time.Time) (ForwardResult, error) {
	var out ForwardResult
	if err := g.Parse(sc, raw, now); err != nil {
		out.Action = ActionDrop
		out.DropReason = dropReasonName[dropParseError]
		return out, nil
	}
	err := g.ProcessParsed(sc, now, &out)
	return out, err
}

// Parse is the gateway's parser stage: it decodes raw into sc, observes the
// parse-stage latency, and books a parse_error drop when the frame does not
// decode. A caller that parses through Parse (or sc.Parse) once can hand
// the same scratch to ProcessParsed and to the software tiers below.
func (g *Gateway) Parse(sc *PacketScratch, raw []byte, now time.Time) error {
	obs := g.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	if err := sc.Parse(raw); err != nil {
		g.stats.dropped.Add(1)
		g.stats.drops[dropParseError].Add(1)
		if tr := g.recorder(sc); tr != nil {
			// sc.pkt holds the previous packet's fields after a failed parse,
			// so the event carries no flow identity — just the where and why.
			tr.Record(trace.Event{TimeNs: now.UnixNano(), Dev: g.trDev,
				Stage: trace.StageGateway, Verdict: trace.VerdictDrop, Code: dropParseError})
		}
		return err
	}
	if obs != nil {
		obs.Parse.Observe(float64(time.Since(t0).Nanoseconds()))
	}
	return nil
}

// ProcessParsed runs the packet already parsed into sc through the pipeline
// and writes the verdict into *out, which it overwrites whole. It is the one
// implementation behind every gateway entry point; the raw-byte ones parse
// first. out.Out aliases sc's serialize buffer until sc's next packet.
func (g *Gateway) ProcessParsed(sc *PacketScratch, now time.Time, out *ForwardResult) error {
	*out = ForwardResult{}
	obs := g.obs
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	sc.ctx.Reset(&sc.pkt)
	sc.ctx.Now = now
	res, err := g.device.Process(&sc.ctx)
	if err != nil {
		return err
	}
	if obs != nil {
		obs.Pipeline.Observe(float64(time.Since(t0).Nanoseconds()))
	}

	out.Unit = g.unitFor(sc, sc.pkt.VXLAN.VNI)
	out.Passes = res.Passes
	out.LatencyNs = res.LatencyNs
	out.WireBytes = res.WireBytes
	g.stats.totalBytes.Add(uint64(sc.pkt.WireLen))
	g.stats.units[out.Unit].packets.Add(1)
	g.stats.units[out.Unit].bytes.Add(uint64(sc.pkt.WireLen))
	g.counters.Add(sc.pkt.VXLAN.VNI, sc.pkt.WireLen)

	switch {
	case sc.ctx.Drop:
		out.Action = ActionDrop
		out.DropReason = dropReasonName[sc.ctx.DropCode]
		g.stats.dropped.Add(1)
		g.stats.drops[sc.ctx.DropCode].Add(1)
		g.traceEvent(sc, trace.VerdictDrop, sc.ctx.DropCode, now)
		g.reportTelemetry(sc, dropAction[sc.ctx.DropCode], now)
	case sc.ctx.ToFallback:
		if g.cfg.FallbackRateBps > 0 {
			if !g.fbMeter.Allow(0, sc.pkt.WireLen, now) {
				out.Action = ActionDrop
				out.DropReason = dropReasonName[dropFallbackRateLimit]
				g.stats.dropped.Add(1)
				g.stats.drops[dropFallbackRateLimit].Add(1)
				g.traceEvent(sc, trace.VerdictDrop, dropFallbackRateLimit, now)
				g.reportTelemetry(sc, dropAction[dropFallbackRateLimit], now)
				return nil
			}
		}
		out.Action = ActionFallback
		out.FallbackMiss = sc.ctx.FallbackMiss
		g.stats.fallback.Add(1)
		g.stats.fallbackBytes.Add(uint64(sc.pkt.WireLen))
		if sc.ctx.FallbackMiss {
			g.stats.fallbackMiss.Add(1)
		}
		g.traceEvent(sc, trace.VerdictFallback, 0, now)
		g.reportTelemetry(sc, "fallback", now)
	case sc.ctx.NCOK:
		if obs != nil {
			t0 = time.Now()
		}
		rewritten, rerr := g.rewrite(sc)
		if rerr != nil {
			*out = ForwardResult{}
			return rerr
		}
		if obs != nil {
			obs.Rewrite.Observe(float64(time.Since(t0).Nanoseconds()))
		}
		out.Action = ActionForward
		out.NC = sc.ctx.NCAddr
		out.Out = rewritten
		g.stats.forwarded.Add(1)
		g.traceEvent(sc, trace.VerdictForward, 0, now)
		g.reportTelemetry(sc, "forward", now)
	default:
		out.Action = ActionDrop
		out.DropReason = dropReasonName[dropNoNC]
		g.stats.dropped.Add(1)
		g.stats.drops[dropNoNC].Add(1)
		g.traceEvent(sc, trace.VerdictDrop, dropNoNC, now)
		g.reportTelemetry(sc, dropAction[dropNoNC], now)
	}
	return nil
}

// rewriteScratch is the preallocated header set the rewrite stage reuses for
// every packet: the serializable layer structs and the backing array for the
// layer stack live with the gateway, so the steady-state forward path never
// touches the heap (the hardware analogue: the deparser writes into fixed
// header vectors, it does not "allocate").
type rewriteScratch struct {
	eth    netpkt.Ethernet
	ip4    netpkt.IPv4
	ip6    netpkt.IPv6
	udp    netpkt.UDP
	vxlan  netpkt.VXLAN
	layers [4]netpkt.SerializableLayer
}

// rewrite re-encapsulates the inner frame with fresh outer headers: outer
// destination = NC (or tunnel endpoint), outer source = the gateway VIP, and
// the VNI of the VPC actually containing the destination (Fig. 2's outer
// rewrite). The returned slice aliases sc's serialize buffer and is valid
// until sc's next packet.
func (g *Gateway) rewrite(sc *PacketScratch) ([]byte, error) {
	inner := sc.pkt.VXLAN.Payload()
	s := &sc.rw
	if sc.ctx.NCAddr.Is6() {
		s.eth = netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv6}
		s.ip6 = netpkt.IPv6{
			NextHeader: netpkt.IPProtocolUDP, HopLimit: 64,
			SrcIP: g.cfg.GatewayIP, DstIP: sc.ctx.NCAddr,
		}
		s.layers[1] = &s.ip6
	} else {
		s.eth = netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4}
		s.ip4 = netpkt.IPv4{
			TTL: 64, Protocol: netpkt.IPProtocolUDP,
			SrcIP: g.cfg.GatewayIP, DstIP: sc.ctx.NCAddr,
		}
		s.layers[1] = &s.ip4
	}
	s.udp = netpkt.UDP{SrcPort: sc.pkt.OuterUDP.SrcPort, DstPort: netpkt.VXLANPort}
	s.vxlan = netpkt.VXLAN{VNI: sc.ctx.FinalVNI}
	s.layers[0], s.layers[2], s.layers[3] = &s.eth, &s.udp, &s.vxlan
	if err := netpkt.SerializeLayers(sc.sbuf, inner, s.layers[:]...); err != nil {
		return nil, err
	}
	return sc.sbuf.Bytes(), nil
}
