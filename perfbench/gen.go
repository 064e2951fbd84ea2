package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"

	"sailfish/internal/netpkt"
)

// Population is the fixed tenant layout every workload loads: the seed
// never changes who exists, only which flows talk and how often.
type Population struct {
	Tenants int // tenants (VPCs)
	VMs     int // VMs per tenant; the last one is the long-tail VM
	NCs     int // physical servers hosting the VMs
}

// fullPopulation is the production-shaped layout: 256 tenants × 64 VMs.
var fullPopulation = Population{Tenants: 256, VMs: 64, NCs: 1024}

// tinyPopulation keeps smoke runs fast.
var tinyPopulation = Population{Tenants: 16, VMs: 8, NCs: 32}

// gatewayIP is the VIP the region's (and the daemon's) rewrites use.
var gatewayIP = netip.MustParseAddr("10.255.0.1")

// VNI is tenant t's network id.
func (p Population) VNI(t int) netpkt.VNI { return netpkt.VNI(0x10000 + t) }

// ServiceVNI is the SNAT-serviced tenant t's Internet-egress network id.
func (p Population) ServiceVNI(t int) netpkt.VNI { return netpkt.VNI(0x20000 + t) }

// IPv6 reports whether tenant t's overlay is IPv6 (a quarter of tenants).
func (p Population) IPv6(t int) bool { return t%4 == 3 }

// SNAT reports whether tenant t sends Internet-bound traffic through SNAT
// (1/16 of tenants, all IPv4 since production SNAT is IPv4-only).
func (p Population) SNAT(t int) bool { return t%16 == 0 }

// Prefix is tenant t's overlay prefix.
func (p Population) Prefix(t int) netip.Prefix {
	if p.IPv6(t) {
		return netip.PrefixFrom(p.VM(t, 0), 64).Masked()
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(t), 0, 0}), 16)
}

// VM is the overlay address of tenant t's VM v.
func (p Population) VM(t, v int) netip.Addr {
	if p.IPv6(t) {
		var b [16]byte
		b[0], b[1] = 0xfd, 0x00
		b[6], b[7] = byte(t>>8), byte(t)
		b[14], b[15] = byte((v+10)>>8), byte(v+10)
		return netip.AddrFrom16(b)
	}
	return netip.AddrFrom4([4]byte{10, byte(t), byte((v + 10) >> 8), byte(v + 10)})
}

// NCIndex is the physical server hosting tenant t's VM v.
func (p Population) NCIndex(t, v int) int {
	return int(netpkt.HashUint64(uint64(t*p.VMs+v)) % uint64(p.NCs))
}

// NC is the underlay address of server i.
func (p Population) NC(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)})
}

// TailVM is the VM index only the x86 pool holds on the hardware-placed
// workloads: traffic to it is the region's fallback share.
func (p Population) TailVM() int { return p.VMs - 1 }

// Flow kinds, which fix what a correct verdict looks like.
const (
	kindLocal    uint8 = iota // VM → VM inside the tenant: expect the NC
	kindInternet              // VM → Internet via SNAT: expect a pool IP
)

// Flow is one generated five-tuple and the verdict it must get.
type Flow struct {
	Tenant int
	VNI    netpkt.VNI
	Src    netip.Addr
	Dst    netip.Addr
	DstVM  int // -1 for Internet-bound flows
	Kind   uint8
	// WantNC is the server the gateway must rewrite towards (kindLocal).
	WantNC netip.Addr
}

// Stream is a seeded packet stream: a flow table, the wire bytes of one
// packet per flow, and the order packets are sent in.
type Stream struct {
	Pop   Population
	Flows []Flow
	// arena holds every flow's packet back to back; off[f]..off[f+1]
	// delimits flow f.
	arena []byte
	off   []int
	// order is the sequence of flow indices; packet i of the run is
	// order[i % len(order)].
	order []int32
	// payloadAt is the offset of the 64-byte inner payload in each
	// flow's packet, where the wire workload stamps sequence numbers.
	payloadAt []int
}

// StreamConfig shapes a generated stream.
type StreamConfig struct {
	Pop        Population
	MainFlows  int     // Zipf-ranked flows between the tenants' VMs
	TailFlows  int     // flows to the tail VMs, drawn uniformly
	TailShare  float64 // share of packets drawn from the tail flows
	ZipfS      float64 // Zipf exponent over the main flows
	Length     int     // packets before the order repeats
	WithSNAT   bool    // every 32nd main flow leaves for the Internet via SNAT
	PayloadLen int     // inner L4 payload bytes
}

// fullStream is the production-shaped traffic mix.
func fullStream(withSNAT bool) StreamConfig {
	return StreamConfig{Pop: fullPopulation, MainFlows: 100_000, TailFlows: 1024,
		TailShare: 1.5e-4, ZipfS: 1.1, Length: 1 << 20, WithSNAT: withSNAT, PayloadLen: 64}
}

// tinyStream keeps smoke runs fast while still exercising every path.
func tinyStream(withSNAT bool) StreamConfig {
	return StreamConfig{Pop: tinyPopulation, MainFlows: 2000, TailFlows: 32,
		TailShare: 5e-3, ZipfS: 1.1, Length: 1 << 15, WithSNAT: withSNAT, PayloadLen: 64}
}

// internetDst is the public destination of an Internet-bound flow
// (198.18.0.0/15, the benchmarking range).
func internetDst(rng *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{198, 18 + byte(rng.Intn(2)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
}

// GenerateStream builds the stream for a seed. The same seed gives the
// same bytes in the same order.
func GenerateStream(cfg StreamConfig, seed int64) (*Stream, error) {
	rng := rand.New(rand.NewSource(seed))
	pop := cfg.Pop
	s := &Stream{Pop: pop}
	mainVMs := pop.VMs - 1 // the tail VM only receives tail flows
	newFlow := func(t, dstVM int) Flow {
		src := rng.Intn(mainVMs)
		if dstVM < 0 {
			dstVM = rng.Intn(mainVMs - 1)
			if dstVM >= src {
				dstVM++
			}
		}
		return Flow{Tenant: t, VNI: pop.VNI(t), Src: pop.VM(t, src), Dst: pop.VM(t, dstVM),
			DstVM: dstVM, Kind: kindLocal, WantNC: pop.NC(pop.NCIndex(t, dstVM))}
	}
	// Main flow i is Zipf rank i. Under s≈1.1 the first ranks carry a
	// large share of all packets, so the flow's class is fixed by its rank
	// and only the members are drawn from the seed: every 32nd rank leaves
	// for the Internet from a SNAT tenant, every 4th rank is IPv6, and the
	// rank's hash picks TCP or UDP.
	// Seeds then change which tenants, VMs and ports are hot, not how much
	// traffic each path carries.
	var v4, v6, snat []int
	for t := 0; t < pop.Tenants; t++ {
		if pop.IPv6(t) {
			v6 = append(v6, t)
		} else {
			v4 = append(v4, t)
		}
		if pop.SNAT(t) {
			snat = append(snat, t)
		}
	}
	for i := 0; i < cfg.MainFlows; i++ {
		var f Flow
		switch {
		case cfg.WithSNAT && i%32 == 16:
			t := snat[rng.Intn(len(snat))]
			f = Flow{Tenant: t, VNI: pop.ServiceVNI(t), Src: pop.VM(t, rng.Intn(mainVMs)), Dst: internetDst(rng),
				DstVM: -1, Kind: kindInternet}
		case i%4 == 3:
			f = newFlow(v6[rng.Intn(len(v6))], -1)
		default:
			f = newFlow(v4[rng.Intn(len(v4))], -1)
		}
		s.Flows = append(s.Flows, f)
	}
	for i := 0; i < cfg.TailFlows; i++ {
		s.Flows = append(s.Flows, newFlow(rng.Intn(pop.Tenants), pop.TailVM()))
	}

	buf := netpkt.NewSerializeBuffer(128, 256)
	payload := make([]byte, cfg.PayloadLen)
	s.off = append(s.off, 0)
	for i, f := range s.Flows {
		proto := netpkt.IPProtocolUDP
		if netpkt.HashUint64(uint64(i))&1 == 0 {
			proto = netpkt.IPProtocolTCP
		}
		fillPayload(payload, seed, i)
		raw, err := (&netpkt.BuildSpec{
			VNI:      f.VNI,
			OuterSrc: pop.NC(rng.Intn(pop.NCs)), OuterDst: gatewayIP,
			InnerSrc: f.Src, InnerDst: f.Dst,
			Proto: proto, SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: uint16(1 + rng.Intn(1024)),
			Payload: payload,
		}).Build(buf)
		if err != nil {
			return nil, fmt.Errorf("build flow %d: %w", i, err)
		}
		s.arena = append(s.arena, raw...)
		s.off = append(s.off, len(s.arena))
		s.payloadAt = append(s.payloadAt, len(raw)-len(payload))
	}

	z := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.MainFlows-1))
	s.order = make([]int32, cfg.Length)
	for i := range s.order {
		if rng.Float64() < cfg.TailShare {
			s.order[i] = int32(cfg.MainFlows + rng.Intn(cfg.TailFlows))
		} else {
			s.order[i] = int32(z.Uint64())
		}
	}
	return s, nil
}

// fillPayload writes flow f's payload: a zero sequence-number slot, the
// flow index, then seed-derived filler the receiver can re-derive.
func fillPayload(p []byte, seed int64, f int) {
	for i := range p {
		p[i] = 0
	}
	binary.BigEndian.PutUint64(p[8:16], uint64(f))
	for i := 16; i < len(p); i++ {
		p[i] = byte(netpkt.HashUint64(uint64(seed)*31 + uint64(f)*131 + uint64(i)))
	}
}

// FlowAt returns the flow index of packet i.
func (s *Stream) FlowAt(i int) int { return int(s.order[i%len(s.order)]) }

// Packet returns flow f's wire bytes. Callers must not modify them.
func (s *Stream) Packet(f int) []byte { return s.arena[s.off[f]:s.off[f+1]] }

// Len is the number of packets before the order repeats.
func (s *Stream) Len() int { return len(s.order) }
