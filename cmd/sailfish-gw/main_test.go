package main

import (
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"sailfish/internal/netpkt"
	"sailfish/internal/pcap"
)

// End-to-end over real loopback UDP: client → gateway socket → NC socket.
func TestServerForwardsOverUDP(t *testing.T) {
	nc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	fc := fileConfig{
		GatewayIP: "10.255.0.1",
		Listen:    "127.0.0.1:0",
		Underlay:  map[string]string{"10.1.1.12": nc.LocalAddr().String()},
		Tenants: []tenantConfig{{
			VNI: 100, Prefix: "192.168.10.0/24",
			VMs: map[string]string{"192.168.10.3": "10.1.1.12"},
		}},
	}
	srv, err := newServer(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.conn.Close()
	go srv.serve() //nolint:errcheck

	client, err := net.DialUDP("udp", nil, srv.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	sbuf := netpkt.NewSerializeBuffer(64, 512)
	if err := netpkt.SerializeLayers(sbuf, []byte("ping"),
		&netpkt.VXLAN{VNI: 100},
		&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
			SrcIP: netip.MustParseAddr("192.168.10.2"),
			DstIP: netip.MustParseAddr("192.168.10.3")},
		&netpkt.UDP{SrcPort: 5000, DstPort: 6000},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(sbuf.Bytes()); err != nil {
		t.Fatal(err)
	}

	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatalf("NC socket received nothing: %v", err)
	}
	var vx netpkt.VXLAN
	if err := vx.DecodeFromBytes(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if vx.VNI != 100 {
		t.Fatalf("VNI = %v", vx.VNI)
	}
	var eth netpkt.Ethernet
	if err := eth.DecodeFromBytes(vx.Payload()); err != nil {
		t.Fatal(err)
	}
	var ip netpkt.IPv4
	if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
		t.Fatal(err)
	}
	if ip.DstIP != netip.MustParseAddr("192.168.10.3") {
		t.Fatalf("inner dst = %v", ip.DstIP)
	}
	var udp netpkt.UDP
	if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatal(err)
	}
	if string(udp.Payload()) != "ping" {
		t.Fatalf("payload = %q", udp.Payload())
	}
}

func TestNewServerRejectsBadConfig(t *testing.T) {
	bad := []fileConfig{
		{GatewayIP: "not-an-ip", Listen: "127.0.0.1:0"},
		{GatewayIP: "10.0.0.1", Listen: "127.0.0.1:0",
			Underlay: map[string]string{"zzz": "127.0.0.1:1"}},
		{GatewayIP: "10.0.0.1", Listen: "127.0.0.1:0",
			Tenants: []tenantConfig{{VNI: 1, Prefix: "nope"}}},
	}
	for i, fc := range bad {
		if srv, err := newServer(fc); err == nil {
			srv.conn.Close()
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestDemoRuns(t *testing.T) {
	if err := runDemo(2, ""); err != nil {
		t.Fatal(err)
	}
}

// A software-only tenant (volatile tables) completes over the embedded
// XGW-x86 path: HW misses, SW forwards, the NC still receives the frame.
func TestServerSoftwareTenantFallsBackOverUDP(t *testing.T) {
	nc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fc := fileConfig{
		GatewayIP: "10.255.0.1",
		Listen:    "127.0.0.1:0",
		Underlay:  map[string]string{"10.1.1.50": nc.LocalAddr().String()},
		SoftwareTenants: []tenantConfig{{
			VNI: 700, Prefix: "172.30.0.0/24",
			VMs: map[string]string{"172.30.0.9": "10.1.1.50"},
		}},
	}
	srv, err := newServer(fc)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serve() //nolint:errcheck
	}()

	client, err := net.DialUDP("udp", nil, srv.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sbuf := netpkt.NewSerializeBuffer(64, 512)
	if err := netpkt.SerializeLayers(sbuf, []byte("volatile"),
		&netpkt.VXLAN{VNI: 700},
		&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
			SrcIP: netip.MustParseAddr("172.30.0.1"),
			DstIP: netip.MustParseAddr("172.30.0.9")},
		&netpkt.UDP{SrcPort: 1, DstPort: 2},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(sbuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, err := nc.Read(buf)
	if err != nil {
		t.Fatalf("software path did not deliver: %v", err)
	}
	var vx netpkt.VXLAN
	if err := vx.DecodeFromBytes(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if vx.VNI != 700 {
		t.Fatalf("VNI = %v", vx.VNI)
	}
	// Stats are atomic snapshots: read them while the serve loop still
	// runs — the counter was incremented before the frame reached the NC.
	if srv.gw.Stats().Fallback == 0 {
		t.Fatal("hardware gateway did not record the fallback")
	}
	srv.conn.Close()
	<-served
}

// Workers mode end to end: many flows through the sharded dispatcher, every
// datagram delivered, the hardware and software tails both exercised, and
// every frame accounted for by exactly one shard worker.
func TestServerShardedWorkersOverUDP(t *testing.T) {
	nc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	fc := fileConfig{
		GatewayIP: "10.255.0.1",
		Listen:    "127.0.0.1:0",
		Workers:   4,
		Underlay:  map[string]string{"10.1.1.12": nc.LocalAddr().String()},
		Tenants: []tenantConfig{{
			VNI: 100, Prefix: "192.168.10.0/24",
			VMs: map[string]string{"192.168.10.3": "10.1.1.12"},
		}},
		SoftwareTenants: []tenantConfig{{
			VNI: 700, Prefix: "172.30.0.0/24",
			VMs: map[string]string{"172.30.0.9": "10.1.1.12"},
		}},
	}
	srv, err := newServer(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(srv.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(srv.shards))
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serve() //nolint:errcheck
	}()

	client, err := net.DialUDP("udp", nil, srv.conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const perPath = 32
	sbuf := netpkt.NewSerializeBuffer(64, 512)
	for i := 0; i < perPath; i++ {
		// Hardware path: distinct source ports → distinct flows → the
		// dispatcher spreads them over the shards.
		if err := netpkt.SerializeLayers(sbuf, []byte("hw"),
			&netpkt.VXLAN{VNI: 100},
			&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
			&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
				SrcIP: netip.MustParseAddr("192.168.10.2"),
				DstIP: netip.MustParseAddr("192.168.10.3")},
			&netpkt.UDP{SrcPort: uint16(5000 + i), DstPort: 6000},
		); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(sbuf.Bytes()); err != nil {
			t.Fatal(err)
		}
		// Software tail: exercises the serialized x86 path across workers.
		if err := netpkt.SerializeLayers(sbuf, []byte("sw"),
			&netpkt.VXLAN{VNI: 700},
			&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
			&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
				SrcIP: netip.MustParseAddr("172.30.0.1"),
				DstIP: netip.MustParseAddr("172.30.0.9")},
			&netpkt.UDP{SrcPort: uint16(7000 + i), DstPort: 2},
		); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(sbuf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	var hw, sw int
	for hw+sw < 2*perPath {
		n, err := nc.Read(buf)
		if err != nil {
			t.Fatalf("received %d/%d datagrams: %v", hw+sw, 2*perPath, err)
		}
		var vx netpkt.VXLAN
		if err := vx.DecodeFromBytes(buf[:n]); err != nil {
			t.Fatal(err)
		}
		switch vx.VNI {
		case 100:
			hw++
		case 700:
			sw++
		default:
			t.Fatalf("unexpected VNI %v", vx.VNI)
		}
	}
	if hw != perPath || sw != perPath {
		t.Fatalf("hw = %d, sw = %d, want %d each", hw, sw, perPath)
	}
	// A worker counts a datagram after sending it on, so the last counts
	// can trail the deliveries just read: poll until they settle.
	var processed, busy uint64
	for deadline := time.Now().Add(5 * time.Second); ; {
		processed, busy = 0, 0
		for _, sh := range srv.shards {
			if p := sh.processed.Load(); p > 0 {
				busy++
				processed += p
			}
			if rf := sh.ringFull.Load(); rf != 0 {
				t.Fatalf("ring full drops = %d with %d-slot rings", rf, shardRingSlots)
			}
		}
		if processed >= 2*perPath || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if processed != 2*perPath {
		t.Fatalf("workers processed %d, want %d", processed, 2*perPath)
	}
	if busy < 2 {
		t.Fatalf("only %d shard(s) carried traffic; 64 flows should spread", busy)
	}
	if srv.gw.Stats().Fallback == 0 {
		t.Fatal("hardware gateway did not record the software-tenant fallback")
	}
	srv.conn.Close()
	<-served
}

// The workers stanza composes with everything except mutation-between-
// datagrams features: placement is rejected at config load, pcap at serve.
func TestShardedWorkersConfigGates(t *testing.T) {
	if _, err := newServer(fileConfig{
		GatewayIP: "10.255.0.1", Listen: "127.0.0.1:0", Workers: -1,
	}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := newServer(fileConfig{
		GatewayIP: "10.255.0.1", Listen: "127.0.0.1:0", Workers: 4,
		Placement: &placementConfig{},
	}); err == nil {
		t.Fatal("workers > 1 with placement accepted")
	}
	// workers: 1 with placement stays on the serial path and is fine.
	srv, err := newServer(fileConfig{
		GatewayIP: "10.255.0.1", Listen: "127.0.0.1:0", Workers: 1,
		Placement: &placementConfig{},
	})
	if err != nil {
		t.Fatalf("workers: 1 with placement rejected: %v", err)
	}
	srv.conn.Close()

	srv, err = newServer(fileConfig{
		GatewayIP: "10.255.0.1", Listen: "127.0.0.1:0", Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.conn.Close()
	srv.pcap = pcap.NewWriter(io.Discard)
	if err := srv.serve(); err == nil {
		t.Fatal("sharded serve with pcap accepted")
	}
}

// A hardware miss the x86 path cannot complete — a datagram for a tracked
// tenant's VM that neither tier knows — is booked as FallbackMiss, then
// FallbackMissX86 and Drop, as the region's lanes book it. The per-VNI
// identity FallbackMiss == DPUServed + FallbackMissX86 (+ DPU errors, none
// here without a DPU tier) must hold on the collector.
func TestSLOLedgerBooksX86MissBeforePoolFailure(t *testing.T) {
	srv, err := newServer(fileConfig{
		GatewayIP: "10.255.0.1",
		Listen:    "127.0.0.1:0",
		Underlay:  map[string]string{"10.1.1.12": "127.0.0.1:9"},
		Tenants: []tenantConfig{{
			VNI: 100, Prefix: "192.168.10.0/24",
			VMs: map[string]string{"192.168.10.3": "10.1.1.12"},
		}},
		SLO: &sloConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.conn.Close()

	sbuf := netpkt.NewSerializeBuffer(64, 512)
	if err := netpkt.SerializeLayers(sbuf, []byte("lost"),
		&netpkt.VXLAN{VNI: 100},
		&netpkt.Ethernet{EtherType: netpkt.EtherTypeIPv4},
		&netpkt.IPv4{TTL: 64, Protocol: netpkt.IPProtocolUDP,
			SrcIP: netip.MustParseAddr("192.168.10.2"),
			DstIP: netip.MustParseAddr("192.168.10.77")},
		&netpkt.UDP{SrcPort: 5000, DstPort: 6000},
	); err != nil {
		t.Fatal(err)
	}
	if err := srv.handle(sbuf.Bytes()); err == nil {
		t.Fatal("datagram for an unknown VM was delivered")
	}
	c, ok := srv.sloCol.Snapshot(100)
	if !ok {
		t.Fatal("tenant 100 is not tracked")
	}
	if c.FallbackMiss != 1 || c.FallbackMissX86 != 1 || c.Dropped != 1 || c.Fallback != 0 {
		t.Fatalf("miss not booked as fallback_miss + x86 + drop: %+v", c)
	}
	if c.FallbackMiss != c.DPUServed+c.FallbackMissX86 {
		t.Fatalf("FallbackMiss %d != DPUServed %d + FallbackMissX86 %d",
			c.FallbackMiss, c.DPUServed, c.FallbackMissX86)
	}
}
