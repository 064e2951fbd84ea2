package tables

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"sailfish/internal/netpkt"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// --- TCAM ---

func TestTCAMFirstMatchByPriority(t *testing.T) {
	tc := NewTCAM[string](4)
	// 10.0.0.0/8
	tc.Insert([]byte{10, 0, 0, 0}, []byte{0xff, 0, 0, 0}, 8, "eight")
	// 10.1.0.0/16 (higher priority: longer prefix)
	tc.Insert([]byte{10, 1, 0, 0}, []byte{0xff, 0xff, 0, 0}, 16, "sixteen")
	// default
	tc.Insert([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0}, 0, "default")

	if v, ok := tc.Lookup([]byte{10, 1, 2, 3}); !ok || v != "sixteen" {
		t.Fatalf("got %q/%v", v, ok)
	}
	if v, _ := tc.Lookup([]byte{10, 9, 2, 3}); v != "eight" {
		t.Fatalf("got %q", v)
	}
	if v, _ := tc.Lookup([]byte{8, 8, 8, 8}); v != "default" {
		t.Fatalf("got %q", v)
	}
}

func TestTCAMDelete(t *testing.T) {
	tc := NewTCAM[int](2)
	tc.Insert([]byte{1, 0}, []byte{0xff, 0}, 5, 1)
	if !tc.Delete([]byte{1, 0}, []byte{0xff, 0}, 5) {
		t.Fatal("delete failed")
	}
	if tc.Delete([]byte{1, 0}, []byte{0xff, 0}, 5) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := tc.Lookup([]byte{1, 7}); ok {
		t.Fatal("deleted rule still matches")
	}
}

func TestTCAMWidthEnforced(t *testing.T) {
	tc := NewTCAM[int](4)
	if err := tc.Insert([]byte{1}, []byte{0xff}, 0, 1); err == nil {
		t.Fatal("narrow rule accepted")
	}
	if _, ok := tc.Lookup([]byte{1, 2, 3}); ok {
		t.Fatal("narrow key matched")
	}
}

func TestTCAMStableOrderWithinPriority(t *testing.T) {
	tc := NewTCAM[string](1)
	tc.Insert([]byte{0}, []byte{0}, 1, "first")
	tc.Insert([]byte{0}, []byte{0}, 1, "second")
	if v, _ := tc.Lookup([]byte{42}); v != "first" {
		t.Fatalf("got %q, want insertion order respected", v)
	}
}

// Property: TCAM with prefix rules (priority = prefix length) agrees with
// the LPM trie.
func TestTCAMMatchesTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tc := NewTCAM[int](4)
	tr := NewTrie[int](32)
	for i := 0; i < 200; i++ {
		var b [4]byte
		rng.Read(b[:])
		b[0] = 10
		plen := rng.Intn(33)
		p := netip.PrefixFrom(netip.AddrFrom4(b), plen).Masked()
		v := rng.Intn(1 << 20)
		tr.Insert(p, v)
		val := p.Addr().As4()
		var mask [4]byte
		for j := 0; j < plen; j++ {
			mask[j/8] |= 1 << (7 - j%8)
		}
		// Trie replaces on duplicate insert; TCAM must too for the
		// comparison to hold. Delete any identical rule first.
		tc.Delete(val[:], mask[:], plen)
		tc.Insert(val[:], mask[:], plen, v)
	}
	for i := 0; i < 2000; i++ {
		var b [4]byte
		rng.Read(b[:])
		b[0] = 10
		a := netip.AddrFrom4(b)
		tv, _, tok := tr.Lookup(a)
		cv, cok := tc.Lookup(b[:])
		if tok != cok || (tok && tv != cv) {
			t.Fatalf("addr %v: trie=(%d,%v) tcam=(%d,%v)", a, tv, tok, cv, cok)
		}
	}
}

// --- VXLAN routing table ---

func TestVXLANRoutingLocalAndPeer(t *testing.T) {
	rt := NewVXLANRoutingTable()
	const vpcA, vpcB netpkt.VNI = 100, 200
	// Mirrors Fig. 2 exactly.
	rt.Insert(vpcA, mustPrefix("192.168.10.0/24"), Route{Scope: ScopeLocal})
	rt.Insert(vpcA, mustPrefix("192.168.30.0/24"), Route{Scope: ScopePeer, NextHopVNI: vpcB})
	rt.Insert(vpcB, mustPrefix("192.168.30.0/24"), Route{Scope: ScopeLocal})
	rt.Insert(vpcB, mustPrefix("192.168.10.0/24"), Route{Scope: ScopePeer, NextHopVNI: vpcA})

	// Same-VPC path.
	vni, r, err := rt.Resolve(vpcA, addr("192.168.10.3"))
	if err != nil || vni != vpcA || r.Scope != ScopeLocal {
		t.Fatalf("same-VPC: vni=%v r=%+v err=%v", vni, r, err)
	}
	// Cross-VPC path resolves through the peer chain.
	vni, r, err = rt.Resolve(vpcA, addr("192.168.30.5"))
	if err != nil || vni != vpcB || r.Scope != ScopeLocal {
		t.Fatalf("cross-VPC: vni=%v r=%+v err=%v", vni, r, err)
	}
}

func TestVXLANRoutingLoopDetected(t *testing.T) {
	rt := NewVXLANRoutingTable()
	rt.Insert(1, mustPrefix("10.0.0.0/8"), Route{Scope: ScopePeer, NextHopVNI: 2})
	rt.Insert(2, mustPrefix("10.0.0.0/8"), Route{Scope: ScopePeer, NextHopVNI: 1})
	if _, _, err := rt.Resolve(1, addr("10.1.1.1")); err != ErrRouteLoop {
		t.Fatalf("want ErrRouteLoop, got %v", err)
	}
}

func TestVXLANRoutingMiss(t *testing.T) {
	rt := NewVXLANRoutingTable()
	rt.Insert(1, mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	if _, _, err := rt.Resolve(1, addr("11.0.0.1")); err != ErrNoRoute {
		t.Fatalf("want ErrNoRoute, got %v", err)
	}
	if _, _, err := rt.Resolve(99, addr("10.0.0.1")); err != ErrNoRoute {
		t.Fatalf("unknown VNI: want ErrNoRoute, got %v", err)
	}
}

func TestVXLANRoutingVNIIsolation(t *testing.T) {
	rt := NewVXLANRoutingTable()
	rt.Insert(1, mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	rt.Insert(2, mustPrefix("10.0.0.0/8"), Route{Scope: ScopeRemote, Tunnel: addr("100.64.0.1")})
	r1, _ := rt.Lookup(1, addr("10.1.1.1"))
	r2, _ := rt.Lookup(2, addr("10.1.1.1"))
	if r1.Scope != ScopeLocal || r2.Scope != ScopeRemote {
		t.Fatalf("tenants not isolated: %+v %+v", r1, r2)
	}
}

func TestVXLANRoutingDualStack(t *testing.T) {
	rt := NewVXLANRoutingTable()
	rt.Insert(1, mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	rt.Insert(1, mustPrefix("2001:db8::/32"), Route{Scope: ScopeLocal})
	if rt.Len() != 2 {
		t.Fatalf("Len = %d", rt.Len())
	}
	if _, ok := rt.Lookup(1, addr("2001:db8::1")); !ok {
		t.Fatal("v6 route missing")
	}
	if !rt.Delete(1, mustPrefix("2001:db8::/32")) {
		t.Fatal("v6 delete failed")
	}
	if rt.Len() != 1 {
		t.Fatalf("Len = %d after delete", rt.Len())
	}
}

// --- VM-NC table ---

func TestVMNCTable(t *testing.T) {
	vt := NewVMNCTable()
	vt.Insert(100, addr("192.168.10.2"), addr("10.1.1.11"))
	vt.Insert(100, addr("192.168.10.3"), addr("10.1.1.12"))
	vt.Insert(200, addr("192.168.30.5"), addr("10.1.1.15"))
	if vt.Len() != 3 {
		t.Fatalf("Len = %d", vt.Len())
	}
	nc, ok := vt.Lookup(100, addr("192.168.10.3"))
	if !ok || nc != addr("10.1.1.12") {
		t.Fatalf("got %v/%v", nc, ok)
	}
	// Same VM IP under a different VNI must be distinct.
	if _, ok := vt.Lookup(200, addr("192.168.10.3")); ok {
		t.Fatal("tenant leakage in VM-NC table")
	}
	if !vt.Delete(100, addr("192.168.10.3")) {
		t.Fatal("delete failed")
	}
	if _, ok := vt.Lookup(100, addr("192.168.10.3")); ok {
		t.Fatal("entry survived delete")
	}
}

// --- ACL ---

func TestACLPriorityAndWildcards(t *testing.T) {
	a := NewACL()
	a.Insert(1, ACLRule{Dst: mustPrefix("10.0.0.0/8"), Action: ACLDeny, Priority: 10})
	a.Insert(1, ACLRule{Dst: mustPrefix("10.9.0.0/16"), Action: ACLPermit, Priority: 20})
	f := netpkt.Flow{Src: addr("192.168.0.1"), Dst: addr("10.9.1.1"), Proto: netpkt.IPProtocolTCP, DstPort: 80}
	if a.Check(1, f) != ACLPermit {
		t.Fatal("higher-priority permit not honored")
	}
	f.Dst = addr("10.8.1.1")
	if a.Check(1, f) != ACLDeny {
		t.Fatal("deny rule not matched")
	}
	// Other tenants see default permit.
	if a.Check(2, f) != ACLPermit {
		t.Fatal("ACL leaked across tenants")
	}
}

func TestACLPortRanges(t *testing.T) {
	a := NewACL()
	a.Insert(1, ACLRule{Proto: netpkt.IPProtocolTCP, DstPortLo: 1, DstPortHi: 1023, Action: ACLDeny, Priority: 5})
	low := netpkt.Flow{Proto: netpkt.IPProtocolTCP, DstPort: 22}
	high := netpkt.Flow{Proto: netpkt.IPProtocolTCP, DstPort: 8080}
	udp := netpkt.Flow{Proto: netpkt.IPProtocolUDP, DstPort: 22}
	if a.Check(1, low) != ACLDeny || a.Check(1, high) != ACLPermit || a.Check(1, udp) != ACLPermit {
		t.Fatal("port/proto matching wrong")
	}
}

// --- Meter / Counters ---

func TestMeterConformsAtRate(t *testing.T) {
	m := NewMeter()
	m.SetShape(1, 1000, 500) // 1000 B/s, 500 B burst
	t0 := time.Unix(0, 0)
	if !m.Allow(1, 500, t0) {
		t.Fatal("burst not honored")
	}
	if m.Allow(1, 1, t0) {
		t.Fatal("over-burst packet admitted")
	}
	// After one second, 1000 tokens accrued but capped at burst 500.
	t1 := t0.Add(time.Second)
	if !m.Allow(1, 500, t1) {
		t.Fatal("refill not honored")
	}
	if m.Allow(1, 100, t1) {
		t.Fatal("bucket depth exceeded")
	}
}

func TestMeterUnshapedTenantUnlimited(t *testing.T) {
	m := NewMeter()
	t0 := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		if !m.Allow(42, 1<<20, t0) {
			t.Fatal("unshaped tenant limited")
		}
	}
}

func TestMeterDefaultShape(t *testing.T) {
	m := NewMeter()
	m.DefaultRate, m.DefaultBurst = 100, 100
	t0 := time.Unix(0, 0)
	if !m.Allow(7, 100, t0) || m.Allow(7, 1, t0) {
		t.Fatal("default shape not applied")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add(1, 100)
	c.Add(1, 200)
	c.Add(2, 50)
	p, b := c.Read(1)
	if p != 2 || b != 300 {
		t.Fatalf("Read = %d/%d", p, b)
	}
	p, b = c.Reset(1)
	if p != 2 || b != 300 {
		t.Fatalf("Reset = %d/%d", p, b)
	}
	if p, b = c.Read(1); p != 0 || b != 0 {
		t.Fatal("reset did not clear")
	}
	if p, _ = c.Read(2); p != 1 {
		t.Fatal("cross-tenant counter corrupted")
	}
}

func BenchmarkVMNCLookup(b *testing.B) {
	vt := NewVMNCTable()
	rng := rand.New(rand.NewSource(4))
	keys := make([]VMKey, 100000)
	for i := range keys {
		var buf [4]byte
		rng.Read(buf[:])
		k := VMKey{VNI: netpkt.VNI(rng.Intn(1 << 20)), Addr: netip.AddrFrom4(buf)}
		keys[i] = k
		vt.Insert(k.VNI, k.Addr, addr("10.0.0.1"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		vt.Lookup(k.VNI, k.Addr)
	}
}

func BenchmarkTCAMLookup(b *testing.B) {
	tc := NewTCAM[int](7) // VNI(3B)+IPv4(4B)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 4096; i++ {
		val := make([]byte, 7)
		mask := make([]byte, 7)
		rng.Read(val)
		plen := rng.Intn(57)
		for j := 0; j < plen; j++ {
			mask[j/8] |= 1 << (7 - j%8)
		}
		tc.Insert(val, mask, plen, i)
	}
	key := make([]byte, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[6] = byte(i)
		tc.Lookup(key)
	}
}

func BenchmarkACLCheck(b *testing.B) {
	a := NewACL()
	for i := 0; i < 64; i++ {
		a.Insert(1, ACLRule{Proto: netpkt.IPProtocolTCP,
			DstPortLo: uint16(i * 100), DstPortHi: uint16(i*100 + 50),
			Action: ACLDeny, Priority: i})
	}
	f := netpkt.Flow{Proto: netpkt.IPProtocolTCP, DstPort: 9999}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Check(1, f)
	}
}
