package netpkt

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// frontCorpus builds representative valid frames: both address families on
// both stacks, TCP, UDP and no-L4 inners, with and without payload.
func frontCorpus(t *testing.T) [][]byte {
	t.Helper()
	specs := []BuildSpec{
		{VNI: 100, OuterSrc: v4("10.0.0.1"), OuterDst: v4("10.0.0.2"),
			InnerSrc: v4("192.168.10.2"), InnerDst: v4("192.168.10.3"),
			Proto: IPProtocolTCP, SrcPort: 5555, DstPort: 80, Payload: []byte("hello")},
		{VNI: 7, OuterSrc: v4("10.0.0.1"), OuterDst: v4("10.0.0.2"),
			InnerSrc: v4("2001:db8::10"), InnerDst: v4("2001:db8::20"),
			Proto: IPProtocolUDP, SrcPort: 53, DstPort: 53},
		{VNI: 9, OuterSrc: v4("2001:db8:100::1"), OuterDst: v4("2001:db8:100::2"),
			InnerSrc: v4("192.168.0.1"), InnerDst: v4("192.168.0.2"),
			Proto: IPProtocolUDP},
		{VNI: 0xFFFFFF, OuterSrc: v4("2001:db8::1"), OuterDst: v4("2001:db8::2"),
			InnerSrc: v4("2001:db8:1::1"), InnerDst: v4("2001:db8:1::2"),
			Proto: IPProtocolTCP, SrcPort: 1, DstPort: 65535, Payload: make([]byte, 128)},
	}
	var out [][]byte
	for i := range specs {
		out = append(out, buildTestPacket(t, specs[i]))
	}
	// A non-TCP/UDP inner protocol: rewrite the inner IPv4 protocol byte of
	// the first frame to ICMP; the old TCP header becomes opaque payload and
	// the flow must stay address-only.
	icmp := append([]byte(nil), out[0]...)
	innerIP := EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen + VXLANHeaderLen + EthernetHeaderLen
	icmp[innerIP+9] = byte(IPProtocolICMP)
	out = append(out, icmp)
	return out
}

// checkFrontEquivalence asserts ParseFront's contract on one frame: same
// accept/reject verdict (and error value) as the full parser, and identical
// VNI, flow and wire length on accept.
func checkFrontEquivalence(t *testing.T, raw []byte) {
	t.Helper()
	var p Parser
	var pkt GatewayPacket
	var fm FrontMeta
	perr := p.Parse(raw, &pkt)
	ferr := ParseFront(raw, &fm)
	if (perr == nil) != (ferr == nil) {
		t.Fatalf("verdict mismatch on %x: Parse=%v ParseFront=%v", raw, perr, ferr)
	}
	if perr != nil {
		if perr != ferr {
			t.Fatalf("error mismatch on %x: Parse=%v ParseFront=%v", raw, perr, ferr)
		}
		return
	}
	if fm.VNI != pkt.VXLAN.VNI {
		t.Fatalf("VNI mismatch: front=%v full=%v", fm.VNI, pkt.VXLAN.VNI)
	}
	if fm.Flow != pkt.InnerFlow() {
		t.Fatalf("flow mismatch: front=%+v full=%+v", fm.Flow, pkt.InnerFlow())
	}
	if fm.WireLen != pkt.WireLen {
		t.Fatalf("wire len mismatch: front=%d full=%d", fm.WireLen, pkt.WireLen)
	}
}

func TestParseFrontMatchesFullParser(t *testing.T) {
	for _, raw := range frontCorpus(t) {
		checkFrontEquivalence(t, raw)
	}
}

func TestParseFrontMatchesFullParserOnTruncations(t *testing.T) {
	for _, raw := range frontCorpus(t) {
		for n := 0; n <= len(raw); n++ {
			checkFrontEquivalence(t, raw[:n])
		}
	}
}

func TestParseFrontMatchesFullParserOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	corpus := frontCorpus(t)
	// Deterministic hostile edits covering each validation branch: bad
	// ethertypes, bad IP versions, non-VXLAN port, cleared I flag, lying
	// length fields, invalid TCP data offset.
	base := corpus[0]
	outerIP := EthernetHeaderLen
	outerUDP := outerIP + IPv4HeaderLen
	vxlan := outerUDP + UDPHeaderLen
	innerIP := vxlan + VXLANHeaderLen + EthernetHeaderLen
	innerTCP := innerIP + IPv4HeaderLen
	edits := []func(b []byte){
		func(b []byte) { binary.BigEndian.PutUint16(b[12:14], 0x0806) },                    // outer ARP
		func(b []byte) { b[outerIP] = 0x65 },                                               // outer bad version
		func(b []byte) { b[outerIP+9] = byte(IPProtocolTCP) },                              // outer not UDP
		func(b []byte) { binary.BigEndian.PutUint16(b[outerUDP+2:], 9999) },                // not VXLAN port
		func(b []byte) { binary.BigEndian.PutUint16(b[outerUDP+4:], 3) },                   // absurd UDP length
		func(b []byte) { binary.BigEndian.PutUint16(b[outerUDP+4:], 0xFFFF) },              // oversize UDP length
		func(b []byte) { binary.BigEndian.PutUint16(b[outerUDP+4:], 12) },                  // UDP length hides VXLAN
		func(b []byte) { b[vxlan] = 0 },                                                    // cleared I flag
		func(b []byte) { binary.BigEndian.PutUint16(b[vxlan+VXLANHeaderLen+12:], 0x86DD) }, // inner says v6, bytes are v4
		func(b []byte) { b[innerIP] = 0x45 - 0x20 },                                        // inner bad version
		func(b []byte) { binary.BigEndian.PutUint16(b[innerIP+2:], 10) },                   // inner TotalLength < IHL
		func(b []byte) { binary.BigEndian.PutUint16(b[innerIP+2:], 24) },                   // inner TotalLength truncates TCP
		func(b []byte) { b[innerTCP+12] = 0x10 },                                           // TCP dataOff < 5
		func(b []byte) { b[innerTCP+12] = 0xF0 },                                           // TCP dataOff beyond segment
	}
	for _, edit := range edits {
		m := append([]byte(nil), base...)
		edit(m)
		checkFrontEquivalence(t, m)
	}
	// Random single- and double-byte corruption across the whole corpus.
	for _, raw := range corpus {
		for i := 0; i < 2000; i++ {
			m := append([]byte(nil), raw...)
			m[rng.Intn(len(m))] ^= byte(1 << rng.Intn(8))
			if i%2 == 1 {
				m[rng.Intn(len(m))] = byte(rng.Intn(256))
			}
			checkFrontEquivalence(t, m)
		}
	}
}

func TestParseFrontZeroAlloc(t *testing.T) {
	raw := buildTestPacket(t, BuildSpec{
		VNI:      100,
		OuterSrc: v4("10.0.0.1"), OuterDst: v4("10.0.0.2"),
		InnerSrc: v4("192.168.10.2"), InnerDst: v4("192.168.10.3"),
		Proto: IPProtocolTCP, SrcPort: 5555, DstPort: 80,
	})
	var fm FrontMeta
	allocs := testing.AllocsPerRun(200, func() {
		if err := ParseFront(raw, &fm); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ParseFront allocates %.1f per run, want 0", allocs)
	}
}

// FuzzParseFrontMatchesParse holds ParseFront to its contract on arbitrary
// bytes: the same verdict and error as the full parser, the same VNI, flow
// and wire length on accept, and a memoized GatewayPacket.FlowHash equal to
// the front flow's FastHash. Dispatchers shard by the front parse while the
// lanes parse fully, so a divergence would split a flow across shards.
func FuzzParseFrontMatchesParse(f *testing.F) {
	fuzzSeedFrames(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFrontEquivalence(t, data)
		var p Parser
		var pkt GatewayPacket
		if p.Parse(data, &pkt) != nil {
			return
		}
		if got, want := pkt.FlowHash(), pkt.InnerFlow().FastHash(); got != want {
			t.Fatalf("FlowHash = %#x, InnerFlow().FastHash() = %#x", got, want)
		}
	})
}

// A scratch packet reused across parses must not serve the previous
// packet's memoized hash.
func TestFlowHashTracksReparse(t *testing.T) {
	corpus := frontCorpus(t)
	var p Parser
	var pkt GatewayPacket
	for i := 0; i < 2*len(corpus); i++ {
		raw := corpus[i%len(corpus)]
		if err := p.Parse(raw, &pkt); err != nil {
			t.Fatal(err)
		}
		var fm FrontMeta
		if err := ParseFront(raw, &fm); err != nil {
			t.Fatal(err)
		}
		if pkt.FlowHash() != fm.Flow.FastHash() {
			t.Fatalf("frame %d: memoized hash is stale", i)
		}
	}
}
