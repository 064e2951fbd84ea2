package tables

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"sailfish/internal/netpkt"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestTrieBasicLPM(t *testing.T) {
	tr := NewTrie[string](32)
	entries := map[string]string{
		"10.0.0.0/8":     "eight",
		"10.1.0.0/16":    "sixteen",
		"10.1.2.0/24":    "twentyfour",
		"10.1.2.3/32":    "host",
		"0.0.0.0/0":      "default",
		"192.168.0.0/16": "rfc1918",
	}
	for p, v := range entries {
		if err := tr.Insert(mustPrefix(p), v); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(entries) {
		t.Fatalf("Len = %d", tr.Len())
	}
	cases := []struct {
		addr string
		want string
		plen int
	}{
		{"10.1.2.3", "host", 32},
		{"10.1.2.4", "twentyfour", 24},
		{"10.1.3.1", "sixteen", 16},
		{"10.2.0.1", "eight", 8},
		{"192.168.5.5", "rfc1918", 16},
		{"8.8.8.8", "default", 0},
	}
	for _, c := range cases {
		v, plen, ok := tr.Lookup(netip.MustParseAddr(c.addr))
		if !ok || v != c.want || plen != c.plen {
			t.Errorf("Lookup(%s) = %q/%d/%v, want %q/%d", c.addr, v, plen, ok, c.want, c.plen)
		}
	}
}

func TestTrieMissWithoutDefault(t *testing.T) {
	tr := NewTrie[int](32)
	if err := tr.Insert(mustPrefix("10.0.0.0/8"), 1); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tr.Lookup(netip.MustParseAddr("11.0.0.1")); ok {
		t.Fatal("unexpected match")
	}
}

func TestTrieReplace(t *testing.T) {
	tr := NewTrie[int](32)
	p := mustPrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	if v, _ := tr.Get(p); v != 2 {
		t.Fatalf("Get = %d", v)
	}
}

func TestTrieDeleteAndPrune(t *testing.T) {
	tr := NewTrie[int](32)
	tr.Insert(mustPrefix("10.0.0.0/8"), 1)
	tr.Insert(mustPrefix("10.1.0.0/16"), 2)
	if !tr.Delete(mustPrefix("10.1.0.0/16")) {
		t.Fatal("delete failed")
	}
	if tr.Delete(mustPrefix("10.1.0.0/16")) {
		t.Fatal("double delete succeeded")
	}
	v, plen, ok := tr.Lookup(netip.MustParseAddr("10.1.2.3"))
	if !ok || v != 1 || plen != 8 {
		t.Fatalf("after delete: %d/%d/%v", v, plen, ok)
	}
	if !tr.Delete(mustPrefix("10.0.0.0/8")) {
		t.Fatal("delete root entry failed")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// The trie must have been pruned back to empty.
	if tr.root != nil {
		t.Fatal("trie not pruned after deleting all entries")
	}
}

func TestTrieRejectsWrongFamily(t *testing.T) {
	tr := NewTrie[int](32)
	if err := tr.Insert(mustPrefix("2001:db8::/32"), 1); err == nil {
		t.Fatal("v6 prefix accepted by 32-bit trie")
	}
	tr6 := NewTrie[int](128)
	if err := tr6.Insert(mustPrefix("10.0.0.0/8"), 1); err == nil {
		t.Fatal("v4 prefix accepted by 128-bit trie")
	}
	if _, _, ok := tr6.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("v4 lookup matched in v6 trie")
	}
}

func TestTrieIPv6(t *testing.T) {
	tr := NewTrie[string](128)
	tr.Insert(mustPrefix("2001:db8::/32"), "site")
	tr.Insert(mustPrefix("2001:db8:1::/48"), "subnet")
	tr.Insert(mustPrefix("2001:db8:1::42/128"), "host")
	v, plen, ok := tr.Lookup(netip.MustParseAddr("2001:db8:1::42"))
	if !ok || v != "host" || plen != 128 {
		t.Fatalf("got %q/%d/%v", v, plen, ok)
	}
	v, _, _ = tr.Lookup(netip.MustParseAddr("2001:db8:1::43"))
	if v != "subnet" {
		t.Fatalf("got %q", v)
	}
	v, _, _ = tr.Lookup(netip.MustParseAddr("2001:db8:ffff::1"))
	if v != "site" {
		t.Fatalf("got %q", v)
	}
}

func TestTrieWalk(t *testing.T) {
	tr := NewTrie[int](32)
	want := map[string]int{
		"0.0.0.0/0":      0,
		"10.0.0.0/8":     1,
		"10.1.0.0/16":    2,
		"192.168.1.0/24": 3,
	}
	for p, v := range want {
		tr.Insert(mustPrefix(p), v)
	}
	got := map[string]int{}
	tr.Walk(func(p netip.Prefix, v int) bool {
		got[p.String()] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("walk visited %d, want %d", len(got), len(want))
	}
	for p, v := range want {
		if got[p] != v {
			t.Errorf("walk[%s] = %d, want %d", p, got[p], v)
		}
	}
	// Early stop.
	count := 0
	tr.Walk(func(netip.Prefix, int) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

// linearLPM is the brute-force reference: scan all prefixes, pick the
// longest that contains addr.
type linearLPM struct {
	ps []netip.Prefix
	vs []int
}

func (l *linearLPM) insert(p netip.Prefix, v int) {
	for i, q := range l.ps {
		if q == p {
			l.vs[i] = v
			return
		}
	}
	l.ps = append(l.ps, p)
	l.vs = append(l.vs, v)
}

func (l *linearLPM) lookup(a netip.Addr) (int, int, bool) {
	best, bestLen, ok := 0, -1, false
	for i, p := range l.ps {
		if p.Contains(a) && p.Bits() > bestLen {
			best, bestLen, ok = l.vs[i], p.Bits(), true
		}
	}
	return best, bestLen, ok
}

// Property: the trie agrees with a linear-scan reference on random prefix
// sets and random probes, for both families.
func TestTrieMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{32, 128} {
		tr := NewTrie[int](bits)
		ref := &linearLPM{}
		randAddr := func() netip.Addr {
			if bits == 32 {
				var b [4]byte
				rng.Read(b[:])
				return netip.AddrFrom4(b)
			}
			var b [16]byte
			rng.Read(b[:])
			// Constrain to a /16 so prefixes overlap often.
			b[0], b[1] = 0x20, 0x01
			return netip.AddrFrom16(b)
		}
		for i := 0; i < 300; i++ {
			plen := rng.Intn(bits + 1)
			p := netip.PrefixFrom(randAddr(), plen).Masked()
			v := rng.Intn(1000)
			if err := tr.Insert(p, v); err != nil {
				t.Fatal(err)
			}
			ref.insert(p, v)
		}
		for i := 0; i < 2000; i++ {
			a := randAddr()
			gv, gl, gok := tr.Lookup(a)
			wv, wl, wok := ref.lookup(a)
			if gok != wok || (gok && (gv != wv || gl != wl)) {
				t.Fatalf("bits=%d addr=%v: trie=(%d,%d,%v) ref=(%d,%d,%v)",
					bits, a, gv, gl, gok, wv, wl, wok)
			}
		}
	}
}

// Property: after random deletions the trie still agrees with the reference.
func TestTrieDeleteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := NewTrie[int](32)
	ref := &linearLPM{}
	var installed []netip.Prefix
	for i := 0; i < 200; i++ {
		var b [4]byte
		rng.Read(b[:])
		b[0] = 10 // dense overlap inside 10/8
		p := netip.PrefixFrom(netip.AddrFrom4(b), 8+rng.Intn(25)).Masked()
		tr.Insert(p, i)
		ref.insert(p, i)
		installed = append(installed, p)
	}
	// Delete half.
	for i := 0; i < 100; i++ {
		p := installed[rng.Intn(len(installed))]
		got := tr.Delete(p)
		// Mirror in reference.
		found := false
		for j, q := range ref.ps {
			if q == p {
				ref.ps = append(ref.ps[:j], ref.ps[j+1:]...)
				ref.vs = append(ref.vs[:j], ref.vs[j+1:]...)
				found = true
				break
			}
		}
		if got != found {
			t.Fatalf("Delete(%v) = %v, reference had %v", p, got, found)
		}
	}
	for i := 0; i < 2000; i++ {
		var b [4]byte
		rng.Read(b[:])
		b[0] = 10
		a := netip.AddrFrom4(b)
		gv, gl, gok := tr.Lookup(a)
		wv, wl, wok := ref.lookup(a)
		if gok != wok || (gok && (gv != wv || gl != wl)) {
			t.Fatalf("addr=%v: trie=(%d,%d,%v) ref=(%d,%d,%v)", a, gv, gl, gok, wv, wl, wok)
		}
	}
	if tr.Len() != len(ref.ps) {
		t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref.ps))
	}
}

// trieSink keeps benchmarked lookups from being optimized away.
var trieSink int

// BenchmarkTrieLookup measures longest-prefix lookups. The v4/16 and v6/64
// rows are the gateway's per-tenant tries, one VPC prefix each; v6/128 adds
// a thousand host routes under the VPC prefix; the random rows are 100k
// overlapping prefixes.
func BenchmarkTrieLookup(b *testing.B) {
	hosts := make([]netip.Prefix, 1024)
	for i := range hosts {
		hosts[i] = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, 1, 0, 2,
			14: byte(i >> 8), 15: byte(i)}), 128)
	}
	for _, c := range []struct {
		name     string
		prefixes []netip.Prefix
		addr     netip.Addr
	}{
		{"v4/16", []netip.Prefix{mustPrefix("10.1.0.0/16")}, netip.MustParseAddr("10.1.2.3")},
		{"v6/64", []netip.Prefix{mustPrefix("2001:db8:1:2::/64")}, netip.MustParseAddr("2001:db8:1:2::7")},
		{"v6/128", append([]netip.Prefix{mustPrefix("2001:db8:1:2::/64")}, hosts...), hosts[517].Addr()},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := NewTrie[Route](c.addr.BitLen())
			for i, p := range c.prefixes {
				tr.Insert(p, Route{NextHopVNI: netpkt.VNI(i)})
			}
			if _, plen, _ := tr.Lookup(c.addr); plen != c.prefixes[len(c.prefixes)-1].Bits() {
				b.Fatalf("lookup matched /%d", plen)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, plen, _ := tr.Lookup(c.addr)
				trieSink += plen
			}
		})
	}
	b.Run("v4/random-100k", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		tr := NewTrie[int](32)
		for i := 0; i < 100000; i++ {
			var buf [4]byte
			rng.Read(buf[:])
			tr.Insert(netip.PrefixFrom(netip.AddrFrom4(buf), 8+rng.Intn(25)).Masked(), i)
		}
		addrs := make([]netip.Addr, 1024)
		for i := range addrs {
			var buf [4]byte
			rng.Read(buf[:])
			addrs[i] = netip.AddrFrom4(buf)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, plen, _ := tr.Lookup(addrs[i%len(addrs)])
			trieSink += plen
		}
	})
	b.Run("v6/random-100k", func(b *testing.B) {
		rng := rand.New(rand.NewSource(8))
		tr := NewTrie[int](128)
		for i := 0; i < 100000; i++ {
			var buf [16]byte
			rng.Read(buf[:])
			buf[0], buf[1] = 0x20, 0x01
			tr.Insert(netip.PrefixFrom(netip.AddrFrom16(buf), 32+rng.Intn(97)).Masked(), i)
		}
		addrs := make([]netip.Addr, 1024)
		for i := range addrs {
			var buf [16]byte
			rng.Read(buf[:])
			buf[0], buf[1] = 0x20, 0x01
			addrs[i] = netip.AddrFrom16(buf)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, plen, _ := tr.Lookup(addrs[i%len(addrs)])
			trieSink += plen
		}
	})
}

func BenchmarkTrieInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	prefixes := make([]netip.Prefix, 8192)
	for i := range prefixes {
		var buf [4]byte
		rng.Read(buf[:])
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4(buf), 8+rng.Intn(25)).Masked()
	}
	tr := NewTrie[int](32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(prefixes[i%len(prefixes)], i)
	}
}

// Property (testing/quick): insert → get returns the stored value for any
// prefix, both families.
func TestTrieInsertGetQuick(t *testing.T) {
	f := func(b4 [4]byte, plen4 uint8, b16 [16]byte, plen16 uint8, v int) bool {
		tr4 := NewTrie[int](32)
		p4 := netip.PrefixFrom(netip.AddrFrom4(b4), int(plen4%33)).Masked()
		if err := tr4.Insert(p4, v); err != nil {
			return false
		}
		got4, ok4 := tr4.Get(p4)
		tr6 := NewTrie[int](128)
		p6 := netip.PrefixFrom(netip.AddrFrom16(b16), int(plen16)%129).Masked()
		if err := tr6.Insert(p6, v); err != nil {
			return false
		}
		got6, ok6 := tr6.Get(p6)
		return ok4 && got4 == v && ok6 && got6 == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): any address covered by an inserted prefix gets
// at least that match back.
func TestTrieCoverageQuick(t *testing.T) {
	f := func(b [4]byte, plen uint8, probe [4]byte, v int) bool {
		tr := NewTrie[int](32)
		p := netip.PrefixFrom(netip.AddrFrom4(b), int(plen%33)).Masked()
		tr.Insert(p, v)
		a := netip.AddrFrom4(probe)
		got, _, ok := tr.Lookup(a)
		if p.Contains(a) {
			return ok && got == v
		}
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
