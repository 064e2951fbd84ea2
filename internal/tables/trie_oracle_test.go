package tables

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

// trieOracle is the linear-scan reference for one trie width: the stored
// prefixes in a map, longest-match by scanning them all with
// netip.Prefix.Contains. It shares no code with the trie.
type trieOracle struct {
	bits int
	m    map[netip.Prefix]int
}

// fits reports whether p belongs in the oracle's family: IPv4 for 32 bits,
// any valid 128-bit address (4-in-6 mapped included) for 128.
func (o *trieOracle) fits(p netip.Prefix) bool {
	return p.IsValid() && p.Addr().BitLen() == o.bits
}

func (o *trieOracle) lookup(a netip.Addr) (v, plen int, ok bool) {
	for p, pv := range o.m {
		if p.Contains(a) && (!ok || p.Bits() > plen) {
			v, plen, ok = pv, p.Bits(), true
		}
	}
	return v, plen, ok
}

// sorted returns the stored prefixes in the trie's walk order: ascending
// masked address, an ancestor before its descendants.
func (o *trieOracle) sorted() []netip.Prefix {
	ps := make([]netip.Prefix, 0, len(o.m))
	for p := range o.m {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(a, b netip.Prefix) int {
		if c := a.Addr().Compare(b.Addr()); c != 0 {
			return c
		}
		return a.Bits() - b.Bits()
	})
	return ps
}

// trieHarness drives a 32-bit and a 128-bit trie and their oracles through
// the same operations, failing on the first disagreement.
type trieHarness struct {
	tb    testing.TB
	tries [2]*Trie[int]
	refs  [2]*trieOracle
	seq   int
}

func newTrieHarness(tb testing.TB) *trieHarness {
	h := &trieHarness{tb: tb}
	for i, bits := range [2]int{32, 128} {
		h.tries[i] = NewTrie[int](bits)
		h.refs[i] = &trieOracle{bits: bits, m: map[netip.Prefix]int{}}
	}
	return h
}

// trieOpLen is the size of one encoded operation: an op byte, a length byte
// and four address bytes.
const trieOpLen = 6

// Op byte layout: bits 0-2 the operation, bit 3 the trie (v4/v6), bits 4-6
// the address kind, bit 7 forces a full-length prefix.
const (
	opInsert = 0 // 0-2
	opDelete = 3
	opGet    = 4
	opLookup = 5 // 5-6
	opWalk   = 7
)

// fuzzAddr decodes an address. Kinds 0-3 and 7 are the trie's own family,
// packed so prefixes overlap and (for IPv6) diverge on both sides of bit
// 64; kind 4 is a 4-in-6 mapped address, 5 the other family, 6 the zero
// Addr.
func fuzzAddr(v6 bool, kind byte, b []byte) netip.Addr {
	switch kind {
	case 4:
		return netip.AddrFrom16([16]byte{10: 0xff, 11: 0xff, 12: 10, 13: b[0], 14: b[1], 15: b[2]})
	case 5:
		v6 = !v6
	case 6:
		return netip.Addr{}
	}
	if !v6 {
		return netip.AddrFrom4([4]byte{10, b[0] & 0x0f, b[1], b[2]})
	}
	return netip.AddrFrom16([16]byte{0: 0x20, 1: 0x01, 6: b[0] & 0x0f, 7: b[1], 8: b[2], 15: b[3]})
}

// step decodes and runs one operation against both the trie and its oracle.
func (h *trieHarness) step(op []byte) {
	h.tb.Helper()
	h.seq++
	fam := int(op[0]>>3) & 1
	tr, ref := h.tries[fam], h.refs[fam]
	a := fuzzAddr(fam == 1, (op[0]>>4)&7, op[2:])
	plen := int(op[1]) % (a.BitLen() + 1)
	if op[0]&0x80 != 0 {
		plen = a.BitLen()
	}
	p := netip.PrefixFrom(a, plen)
	switch op[0] & 7 {
	case opInsert, opInsert + 1, opInsert + 2:
		err := tr.Insert(p, h.seq)
		if (err == nil) != ref.fits(p) {
			h.tb.Fatalf("bits=%d Insert(%v) err=%v, oracle fits=%v", ref.bits, p, err, ref.fits(p))
		}
		if err == nil {
			ref.m[p.Masked()] = h.seq
		}
	case opDelete:
		_, had := ref.m[p.Masked()]
		had = had && ref.fits(p)
		if got := tr.Delete(p); got != had {
			h.tb.Fatalf("bits=%d Delete(%v) = %v, oracle had %v", ref.bits, p, got, had)
		}
		delete(ref.m, p.Masked())
	case opGet:
		wv, wok := ref.m[p.Masked()]
		wok = wok && ref.fits(p)
		if gv, gok := tr.Get(p); gok != wok || gv != wv {
			h.tb.Fatalf("bits=%d Get(%v) = %d/%v, oracle %d/%v", ref.bits, p, gv, gok, wv, wok)
		}
	case opLookup, opLookup + 1:
		gv, gl, gok := tr.Lookup(a)
		wv, wl, wok := ref.lookup(a)
		if gv != wv || gl != wl || gok != wok {
			h.tb.Fatalf("bits=%d Lookup(%v) = %d/%d/%v, oracle %d/%d/%v", ref.bits, a, gv, gl, gok, wv, wl, wok)
		}
	case opWalk:
		h.checkWalk(fam)
	}
	if tr.Len() != len(ref.m) {
		h.tb.Fatalf("bits=%d Len = %d, oracle %d", ref.bits, tr.Len(), len(ref.m))
	}
}

// checkWalk compares a full walk with the oracle's ordered prefix set and
// checks that returning false stops the walk.
func (h *trieHarness) checkWalk(fam int) {
	h.tb.Helper()
	tr, ref := h.tries[fam], h.refs[fam]
	want := ref.sorted()
	i := 0
	tr.Walk(func(p netip.Prefix, v int) bool {
		if i >= len(want) || p != want[i] || v != ref.m[p] {
			h.tb.Fatalf("bits=%d walk[%d] = %v/%d, oracle order %v", ref.bits, i, p, v, want)
		}
		i++
		return true
	})
	if i != len(want) {
		h.tb.Fatalf("bits=%d walk visited %d of %d", ref.bits, i, len(want))
	}
	visited := 0
	tr.Walk(func(netip.Prefix, int) bool { visited++; return false })
	if visited != min(1, len(want)) {
		h.tb.Fatalf("bits=%d early-stopped walk visited %d", ref.bits, visited)
	}
	checkShape(h.tb, tr.root)
}

// checkShape verifies the path-compression invariants the oracle cannot
// see: keys are masked to their length, every child is longer than its
// parent and lies under the parent's prefix on the side its slot names,
// and a node without a value joins exactly two subtrees.
func checkShape[V any](tb testing.TB, n *trieNode[V]) {
	tb.Helper()
	if n == nil {
		return
	}
	l := int(n.plen)
	if n.key != n.key.masked(l) {
		tb.Fatalf("node /%d key %x:%x not masked", l, n.key.hi, n.key.lo)
	}
	if !n.hasValue && (n.child[0] == nil || n.child[1] == nil) {
		tb.Fatalf("valueless node /%d with fewer than two children", l)
	}
	for b, c := range n.child {
		if c == nil {
			continue
		}
		if int(c.plen) <= l || !c.key.within(n.key, l) || c.key.bit(l) != b {
			tb.Fatalf("child /%d misplaced under /%d on side %d", c.plen, l, b)
		}
		checkShape(tb, c)
	}
}

// FuzzTrieOps decodes byte strings into Insert/Delete/Get/Lookup/Walk
// sequences over a 32-bit and a 128-bit trie and checks every answer, Len
// after every step, and the walk order against the linear-scan oracle.
func FuzzTrieOps(f *testing.F) {
	f.Add([]byte{
		0x80, 0, 1, 2, 3, 4, // v4 /32
		0x00, 0, 0, 0, 0, 0, // v4 /0
		0x05, 0, 1, 2, 3, 4, // lookup
		0x07, 0, 0, 0, 0, 0, // walk
		0x88, 0, 1, 2, 3, 4, // v6 /128
		0x08, 64, 1, 2, 3, 4, // v6 /64
		0x48, 104, 1, 2, 3, 0, // 4-in-6 /104
		0x0d, 0, 9, 9, 9, 9, // v6 lookup
		0x6d, 0, 0, 0, 0, 0, // zero-Addr lookup
		0x0b, 64, 1, 2, 3, 4, // v6 delete
		0x0f, 0, 0, 0, 0, 0, // v6 walk
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		// The oracle is linear per step, so a run is quadratic in its
		// length: cap it to keep every input fast.
		if len(data) > 256*trieOpLen {
			data = data[:256*trieOpLen]
		}
		h := newTrieHarness(t)
		for len(data) >= trieOpLen {
			h.step(data[:trieOpLen])
			data = data[trieOpLen:]
		}
		h.checkWalk(0)
		h.checkWalk(1)
	})
}

// TestTrieOpsMatchOracle is the seeded property run: 120k operations drawn
// so the tries churn around a few hundred live prefixes, deletes mostly
// aimed at installed ones, with Len checked at every step and the walk
// order checked periodically.
func TestTrieOpsMatchOracle(t *testing.T) {
	const ops = 120_000
	rng := rand.New(rand.NewSource(12))
	h := newTrieHarness(t)
	var installed [][trieOpLen]byte
	// Address bytes are drawn from a few values so prefixes share long
	// stretches and branch points form at every depth.
	addrByte := func() byte {
		if rng.Intn(4) == 0 {
			return byte(rng.Intn(256))
		}
		return [...]byte{0x00, 0x01, 0x80, 0xff}[rng.Intn(4)]
	}
	for i := 0; i < ops; i++ {
		var op [trieOpLen]byte
		op[1] = byte(rng.Intn(256))
		for j := 2; j < trieOpLen; j++ {
			op[j] = addrByte()
		}
		kind := byte(rng.Intn(8)) // mostly the trie's own family
		if rng.Intn(2) == 0 {
			kind = 0
		}
		op[0] = byte(rng.Intn(2))<<3 | kind<<4
		if rng.Intn(16) == 0 {
			op[0] |= 0x80
		}
		switch r := rng.Intn(100); {
		case r < 35:
			op[0] |= opInsert
			installed = append(installed, op)
		case r < 70:
			if len(installed) > 0 && rng.Intn(3) > 0 {
				j := rng.Intn(len(installed))
				op = installed[j]
				installed[j] = installed[len(installed)-1]
				installed = installed[:len(installed)-1]
			}
			op[0] = op[0]&^7 | opDelete
		case r < 78:
			op[0] |= opGet
		case r < 99:
			op[0] |= opLookup
		default:
			op[0] |= opWalk
		}
		h.step(op[:])
	}
	h.checkWalk(0)
	h.checkWalk(1)
	if h.tries[0].Len() == 0 || h.tries[1].Len() == 0 {
		t.Fatal("property run ended with an empty trie; the op mix is not exercising it")
	}
}

// TestTrieLookupZeroAlloc pins the per-packet lookup at zero allocations
// for both widths.
func TestTrieLookupZeroAlloc(t *testing.T) {
	tr4, tr6 := NewTrie[Route](32), NewTrie[Route](128)
	tr4.Insert(mustPrefix("10.1.0.0/16"), Route{})
	tr6.Insert(mustPrefix("2001:db8:1::/64"), Route{})
	a4, a6 := netip.MustParseAddr("10.1.2.3"), netip.MustParseAddr("2001:db8:1::7")
	if allocs := testing.AllocsPerRun(1000, func() {
		tr4.Lookup(a4)
		tr6.Lookup(a6)
	}); allocs != 0 {
		t.Fatalf("Trie.Lookup allocates %v/op, want 0", allocs)
	}
}
