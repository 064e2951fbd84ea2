package netpkt

import "net/netip"

// GatewayPacket is the parsed view of one VXLAN-encapsulated frame as seen by
// the cloud gateway: the outer transport (underlay) headers, the VXLAN
// header, and the inner (overlay) headers the forwarding tables match on.
//
// All fields are filled in place by Parser.Parse; a GatewayPacket may be
// reused across packets without allocation.
type GatewayPacket struct {
	OuterEth  Ethernet
	OuterIPv4 IPv4
	OuterIPv6 IPv6
	OuterIsV6 bool
	OuterUDP  UDP
	VXLAN     VXLAN

	InnerEth  Ethernet
	InnerIPv4 IPv4
	InnerIPv6 IPv6
	InnerIsV6 bool
	InnerTCP  TCP
	InnerUDP  UDP
	HasL4     bool

	// WireLen is the total frame length in bytes, used for byte counters
	// and rate accounting.
	WireLen int

	// flow is the inner five-tuple, extracted once by Parser.Parse so the
	// pipeline stages that hash or match on it (ECMP, ACL, SNAT) do not
	// re-derive it per lookup.
	flow Flow
	// flowHash memoizes flow.FastHash for the tiers a packet crosses after
	// one parse (steering, ECMP, DPU and x86 picks, trace sampling);
	// hashed reports whether it is current for flow.
	flowHash uint64
	hashed   bool
}

// OuterSrc returns the underlay source address.
func (p *GatewayPacket) OuterSrc() netip.Addr {
	if p.OuterIsV6 {
		return p.OuterIPv6.SrcIP
	}
	return p.OuterIPv4.SrcIP
}

// OuterDst returns the underlay destination address.
func (p *GatewayPacket) OuterDst() netip.Addr {
	if p.OuterIsV6 {
		return p.OuterIPv6.DstIP
	}
	return p.OuterIPv4.DstIP
}

// InnerSrc returns the overlay source address (the sending VM).
func (p *GatewayPacket) InnerSrc() netip.Addr {
	if p.InnerIsV6 {
		return p.InnerIPv6.SrcIP
	}
	return p.InnerIPv4.SrcIP
}

// InnerDst returns the overlay destination address (the destination VM), the
// key of both the VXLAN routing table and the VM-NC mapping table.
func (p *GatewayPacket) InnerDst() netip.Addr {
	if p.InnerIsV6 {
		return p.InnerIPv6.DstIP
	}
	return p.InnerIPv4.DstIP
}

// InnerFlow returns the inner five-tuple, the unit of RSS/ECMP hashing and
// the SNAT session key. It is extracted once per Parse; packets assembled by
// hand (rather than decoded) have a zero flow.
func (p *GatewayPacket) InnerFlow() Flow { return p.flow }

// FlowHash returns InnerFlow().FastHash(), computed on first use after each
// Parse and memoized until the next one. A GatewayPacket is single-goroutine
// like the parser filling it.
func (p *GatewayPacket) FlowHash() uint64 {
	if !p.hashed {
		p.flowHash, p.hashed = p.flow.FastHash(), true
	}
	return p.flowHash
}

// fillFlow caches the inner five-tuple after a successful parse.
func (p *GatewayPacket) fillFlow() {
	p.hashed = false
	p.flow = Flow{Src: p.InnerSrc(), Dst: p.InnerDst()}
	if !p.HasL4 {
		return
	}
	if innerProto(p) == IPProtocolTCP {
		p.flow.Proto = IPProtocolTCP
		p.flow.SrcPort = p.InnerTCP.SrcPort
		p.flow.DstPort = p.InnerTCP.DstPort
	} else {
		p.flow.Proto = IPProtocolUDP
		p.flow.SrcPort = p.InnerUDP.SrcPort
		p.flow.DstPort = p.InnerUDP.DstPort
	}
}

func innerProto(p *GatewayPacket) IPProtocol {
	if p.InnerIsV6 {
		return p.InnerIPv6.NextHeader
	}
	return p.InnerIPv4.Protocol
}

// Parser decodes the full outer-Ethernet → IP → UDP → VXLAN → inner-Ethernet
// → inner-IP [→ TCP/UDP] stack without allocating. It is the software
// equivalent of the Tofino parser stage of XGW-H.
type Parser struct{}

// Parse decodes data into pkt. It returns ErrNotVXLAN for frames that are
// valid IP/UDP but not VXLAN on the well-known port, and ErrTruncated /
// ErrBadVersion for malformed frames.
func (ps *Parser) Parse(data []byte, pkt *GatewayPacket) error {
	pkt.WireLen = len(data)
	if err := pkt.OuterEth.DecodeFromBytes(data); err != nil {
		return err
	}
	var udpData []byte
	switch pkt.OuterEth.EtherType {
	case EtherTypeIPv4:
		pkt.OuterIsV6 = false
		if err := pkt.OuterIPv4.DecodeFromBytes(pkt.OuterEth.Payload()); err != nil {
			return err
		}
		if pkt.OuterIPv4.Protocol != IPProtocolUDP {
			return ErrNotVXLAN
		}
		udpData = pkt.OuterIPv4.Payload()
	case EtherTypeIPv6:
		pkt.OuterIsV6 = true
		if err := pkt.OuterIPv6.DecodeFromBytes(pkt.OuterEth.Payload()); err != nil {
			return err
		}
		if pkt.OuterIPv6.NextHeader != IPProtocolUDP {
			return ErrNotVXLAN
		}
		udpData = pkt.OuterIPv6.Payload()
	default:
		return ErrNotVXLAN
	}
	if err := pkt.OuterUDP.DecodeFromBytes(udpData); err != nil {
		return err
	}
	if pkt.OuterUDP.DstPort != VXLANPort {
		return ErrNotVXLAN
	}
	if err := pkt.VXLAN.DecodeFromBytes(pkt.OuterUDP.Payload()); err != nil {
		return err
	}
	return ps.parseInner(pkt.VXLAN.Payload(), pkt)
}

// parseInner decodes the overlay frame carried inside the VXLAN payload.
func (ps *Parser) parseInner(data []byte, pkt *GatewayPacket) error {
	if err := pkt.InnerEth.DecodeFromBytes(data); err != nil {
		return err
	}
	var l4 []byte
	var proto IPProtocol
	switch pkt.InnerEth.EtherType {
	case EtherTypeIPv4:
		pkt.InnerIsV6 = false
		if err := pkt.InnerIPv4.DecodeFromBytes(pkt.InnerEth.Payload()); err != nil {
			return err
		}
		l4, proto = pkt.InnerIPv4.Payload(), pkt.InnerIPv4.Protocol
	case EtherTypeIPv6:
		pkt.InnerIsV6 = true
		if err := pkt.InnerIPv6.DecodeFromBytes(pkt.InnerEth.Payload()); err != nil {
			return err
		}
		l4, proto = pkt.InnerIPv6.Payload(), pkt.InnerIPv6.NextHeader
	default:
		return ErrNotVXLAN
	}
	pkt.HasL4 = false
	switch proto {
	case IPProtocolTCP:
		if err := pkt.InnerTCP.DecodeFromBytes(l4); err != nil {
			return err
		}
		pkt.HasL4 = true
	case IPProtocolUDP:
		if err := pkt.InnerUDP.DecodeFromBytes(l4); err != nil {
			return err
		}
		pkt.HasL4 = true
	}
	pkt.fillFlow()
	return nil
}
