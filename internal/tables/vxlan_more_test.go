package tables

import (
	"fmt"
	"net/netip"
	"testing"

	"sailfish/internal/netpkt"
)

func TestResolvePeerChainAtHopLimit(t *testing.T) {
	rt := NewVXLANRoutingTable()
	// Chain of 7 peers ending Local: exactly within maxPeerHops (8 lookups).
	const chain = 7
	for i := 0; i < chain; i++ {
		rt.Insert(netpkt.VNI(i), mustPrefix("10.0.0.0/8"),
			Route{Scope: ScopePeer, NextHopVNI: netpkt.VNI(i + 1)})
	}
	rt.Insert(netpkt.VNI(chain), mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	vni, r, err := rt.Resolve(0, netip.MustParseAddr("10.1.1.1"))
	if err != nil || vni != chain || r.Scope != ScopeLocal {
		t.Fatalf("chain of %d: vni=%v r=%+v err=%v", chain, vni, r, err)
	}
	// One hop longer exceeds the budget.
	rt2 := NewVXLANRoutingTable()
	for i := 0; i <= chain+1; i++ {
		rt2.Insert(netpkt.VNI(i), mustPrefix("10.0.0.0/8"),
			Route{Scope: ScopePeer, NextHopVNI: netpkt.VNI(i + 1)})
	}
	rt2.Insert(netpkt.VNI(chain+2), mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	if _, _, err := rt2.Resolve(0, netip.MustParseAddr("10.1.1.1")); err != ErrRouteLoop {
		t.Fatalf("over-long chain: %v", err)
	}
}

func TestRouteOverwrite(t *testing.T) {
	rt := NewVXLANRoutingTable()
	p := mustPrefix("10.0.0.0/8")
	rt.Insert(1, p, Route{Scope: ScopeLocal})
	rt.Insert(1, p, Route{Scope: ScopeRemote, Tunnel: netip.MustParseAddr("100.64.0.1")})
	if rt.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", rt.Len())
	}
	r, _ := rt.Lookup(1, netip.MustParseAddr("10.1.1.1"))
	if r.Scope != ScopeRemote {
		t.Fatalf("overwrite lost: %+v", r)
	}
}

func TestDeleteSpecificRestoresBroader(t *testing.T) {
	rt := NewVXLANRoutingTable()
	rt.Insert(1, mustPrefix("10.0.0.0/8"), Route{Scope: ScopeLocal})
	rt.Insert(1, mustPrefix("10.1.0.0/16"), Route{Scope: ScopeService})
	a := netip.MustParseAddr("10.1.2.3")
	if r, _ := rt.Lookup(1, a); r.Scope != ScopeService {
		t.Fatal("specific route not preferred")
	}
	rt.Delete(1, mustPrefix("10.1.0.0/16"))
	if r, _ := rt.Lookup(1, a); r.Scope != ScopeLocal {
		t.Fatal("broader route not restored after delete")
	}
}

func TestWalkVNIs(t *testing.T) {
	rt := NewVXLANRoutingTable()
	for i := 0; i < 5; i++ {
		rt.Insert(netpkt.VNI(i), mustPrefix(fmt.Sprintf("10.%d.0.0/16", i)), Route{Scope: ScopeLocal})
	}
	rt.Insert(9, mustPrefix("2001:db8::/32"), Route{Scope: ScopeLocal})
	seen := map[netpkt.VNI]bool{}
	rt.WalkVNIs(false, func(vni netpkt.VNI, tr *Trie[Route]) bool {
		seen[vni] = true
		if tr.Len() == 0 {
			t.Fatalf("empty trie surfaced for %v", vni)
		}
		return true
	})
	if len(seen) != 5 || seen[9] {
		t.Fatalf("v4 walk saw %v", seen)
	}
	count := 0
	rt.WalkVNIs(true, func(netpkt.VNI, *Trie[Route]) bool { count++; return true })
	if count != 1 {
		t.Fatalf("v6 walk saw %d VNIs", count)
	}
	// Early stop.
	count = 0
	rt.WalkVNIs(false, func(netpkt.VNI, *Trie[Route]) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestScopeStrings(t *testing.T) {
	for s, want := range map[Scope]string{
		ScopeLocal: "Local", ScopePeer: "Peer", ScopeRemote: "Remote", ScopeService: "Service",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %q", s, s.String())
		}
	}
	if Scope(99).String() == "" {
		t.Fatal("unknown scope unprintable")
	}
}

func TestTCAMClearAndWalk(t *testing.T) {
	tc := NewTCAM[int](2)
	tc.Insert([]byte{1, 0}, []byte{0xff, 0}, 9, 1)
	tc.Insert([]byte{2, 0}, []byte{0xff, 0}, 3, 2)
	order := []int{}
	tc.Walk(func(v, m []byte, prio int, val int) bool {
		order = append(order, prio)
		return true
	})
	if len(order) != 2 || order[0] != 9 || order[1] != 3 {
		t.Fatalf("walk order %v", order)
	}
	tc.Clear()
	if tc.Len() != 0 {
		t.Fatal("clear failed")
	}
	if _, ok := tc.Lookup([]byte{1, 5}); ok {
		t.Fatal("cleared TCAM matched")
	}
}
