// Package tables implements the forwarding-table substrate of the Sailfish
// gateway: a longest-prefix-match trie, a software TCAM, exact-match tables,
// and the concrete gateway tables built from them — the VXLAN routing table,
// the VM-NC mapping table, the SNAT session table, and the QoS/ACL service
// tables.
//
// These structures are behavioral: they answer lookups the way the hardware
// or software data plane would. Resource accounting (how many SRAM/TCAM bits
// a table occupies on the Tofino) lives in internal/tofino and
// internal/xgwh, which consume table *shapes* rather than contents.
package tables

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
)

// Trie is a path-compressed (Patricia) binary longest-prefix-match trie over
// fixed-width bit strings (32 for IPv4, 128 for IPv6). Every node holds a
// whole masked prefix and branches on the bit just past it, so a lookup
// visits one node per branch point on its path rather than one per prefix
// bit: a lone /64 is one node, not sixty-four. Nodes without a value exist
// only where two subtrees diverge. The zero value is not usable; construct
// with NewTrie.
type Trie[V any] struct {
	bits int
	root *trieNode[V]
	n    int
}

// key128 is an address left-aligned in 128 bits: IPv4 occupies the top 32
// bits of hi, IPv6 uses all of hi and lo.
type key128 struct{ hi, lo uint64 }

type trieNode[V any] struct {
	key      key128 // masked to plen
	plen     uint8
	hasValue bool
	child    [2]*trieNode[V] // indexed by bit plen of the descendant's key
	value    V
}

// NewTrie returns an empty trie over keys of the given width in bits
// (32 or 128).
func NewTrie[V any](bits int) *Trie[V] {
	if bits != 32 && bits != 128 {
		panic(fmt.Sprintf("tables: trie width must be 32 or 128, got %d", bits))
	}
	return &Trie[V]{bits: bits}
}

// Bits returns the key width of the trie.
func (t *Trie[V]) Bits() int { return t.bits }

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.n }

// keyOf converts an address of the trie's family into a key. A 32-bit trie
// takes IPv4 addresses only; a 128-bit trie takes every other valid address,
// 4-in-6 mapped ones included. The zero Addr belongs to neither family.
func (t *Trie[V]) keyOf(a netip.Addr) (key128, bool) {
	if t.bits == 32 {
		if !a.Is4() {
			return key128{}, false
		}
		a4 := a.As4()
		return key128{hi: uint64(binary.BigEndian.Uint32(a4[:])) << 32}, true
	}
	if !a.Is6() {
		return key128{}, false
	}
	a16 := a.As16()
	return key128{hi: binary.BigEndian.Uint64(a16[:8]), lo: binary.BigEndian.Uint64(a16[8:])}, true
}

// prefixKey validates p against the trie's family and width and returns its
// masked key and length.
func (t *Trie[V]) prefixKey(p netip.Prefix) (key128, int, bool) {
	k, ok := t.keyOf(p.Addr())
	l := p.Bits()
	if !ok || l < 0 || l > t.bits {
		return key128{}, 0, false
	}
	return k.masked(l), l, true
}

// mask64 returns a word with its top l bits set (l in [0, 64]).
func mask64(l int) uint64 { return ^(^uint64(0) >> uint(l)) }

// masked clears every bit of k past the first l.
func (k key128) masked(l int) key128 {
	if l <= 64 {
		return key128{hi: k.hi & mask64(l)}
	}
	return key128{hi: k.hi, lo: k.lo & mask64(l-64)}
}

// bit returns bit i (0 = most significant) of k.
func (k key128) bit(i int) int {
	if i < 64 {
		return int(k.hi>>(63-uint(i))) & 1
	}
	return int(k.lo>>(127-uint(i))) & 1
}

// within reports whether the first l bits of k equal those of p.
func (k key128) within(p key128, l int) bool {
	if l <= 64 {
		return (k.hi^p.hi)&mask64(l) == 0
	}
	return k.hi == p.hi && (k.lo^p.lo)&mask64(l-64) == 0
}

// common returns the length of the longest common prefix of a and b.
func common(a, b key128) int {
	if x := a.hi ^ b.hi; x != 0 {
		return bits.LeadingZeros64(x)
	}
	return 64 + bits.LeadingZeros64(a.lo^b.lo)
}

// descend walks toward prefix (k, l) and returns the slot holding the first
// node that is at least l bits long or does not cover k (nil when the walk
// falls off the trie), together with its parent's slot (nil at the root).
func (t *Trie[V]) descend(k key128, l int) (slot, parent **trieNode[V]) {
	slot = &t.root
	for n := *slot; n != nil && int(n.plen) < l && k.within(n.key, int(n.plen)); n = *slot {
		parent, slot = slot, &n.child[k.bit(int(n.plen))]
	}
	return slot, parent
}

// Insert adds or replaces the value for prefix p. It reports an error if p
// is invalid or its family does not match the trie width.
func (t *Trie[V]) Insert(p netip.Prefix, v V) error {
	k, l, ok := t.prefixKey(p)
	if !ok {
		return fmt.Errorf("tables: prefix %v does not fit %d-bit trie", p, t.bits)
	}
	slot, _ := t.descend(k, l)
	n := *slot
	if n != nil && int(n.plen) == l && n.key == k { // the prefix is already a node
		if !n.hasValue {
			t.n++
		}
		n.hasValue, n.value = true, v
		return nil
	}
	m := &trieNode[V]{key: k, plen: uint8(l), hasValue: true, value: v}
	if n != nil {
		if c := min(common(k, n.key), l); c == l { // p covers n: p becomes n's parent
			m.child[n.key.bit(l)] = n
		} else { // p and n diverge at bit c: join them under a branch node
			br := &trieNode[V]{key: k.masked(c), plen: uint8(c)}
			br.child[k.bit(c)] = m
			br.child[n.key.bit(c)] = n
			m = br
		}
	}
	*slot = m
	t.n++
	return nil
}

// Delete removes prefix p and reports whether it was present. A node left
// without a value keeps its place only while it still joins two subtrees,
// so memory tracks the live prefix set.
func (t *Trie[V]) Delete(p netip.Prefix) bool {
	k, l, ok := t.prefixKey(p)
	if !ok {
		return false
	}
	slot, parent := t.descend(k, l)
	n := *slot
	if n == nil || int(n.plen) != l || n.key != k || !n.hasValue {
		return false
	}
	var zero V
	n.hasValue, n.value = false, zero
	t.n--
	switch {
	case n.child[0] != nil && n.child[1] != nil:
		// Still a branch point.
	case n.child[0] != nil:
		*slot = n.child[0]
	case n.child[1] != nil:
		*slot = n.child[1]
	default:
		*slot = nil
		// The parent lost a child; without a value of its own it no
		// longer branches, so its other child takes its place.
		if parent != nil {
			if par := *parent; !par.hasValue {
				*parent = par.child[0]
				if par.child[0] == nil {
					*parent = par.child[1]
				}
			}
		}
	}
	return true
}

// Lookup returns the value of the longest prefix covering addr, the length of
// that prefix, and whether any prefix matched.
func (t *Trie[V]) Lookup(addr netip.Addr) (v V, plen int, ok bool) {
	k, kok := t.keyOf(addr)
	if !kok {
		return v, 0, false
	}
	for n := t.root; n != nil; {
		np := int(n.plen)
		if !k.within(n.key, np) {
			break
		}
		if n.hasValue {
			v, plen, ok = n.value, np, true
		}
		n = n.child[k.bit(np)] // a full-length node has no children
	}
	return v, plen, ok
}

// Get returns the value stored for exactly prefix p.
func (t *Trie[V]) Get(p netip.Prefix) (v V, ok bool) {
	k, l, kok := t.prefixKey(p)
	if !kok {
		return v, false
	}
	slot, _ := t.descend(k, l)
	if n := *slot; n != nil && int(n.plen) == l && n.key == k && n.hasValue {
		return n.value, true
	}
	return v, false
}

// Walk visits every stored prefix in lexicographic bit order. Returning false
// from fn stops the walk.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	t.walk(t.root, fn)
}

func (t *Trie[V]) walk(n *trieNode[V], fn func(netip.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasValue {
		var addr netip.Addr
		if t.bits == 32 {
			var a4 [4]byte
			binary.BigEndian.PutUint32(a4[:], uint32(n.key.hi>>32))
			addr = netip.AddrFrom4(a4)
		} else {
			var a16 [16]byte
			binary.BigEndian.PutUint64(a16[:8], n.key.hi)
			binary.BigEndian.PutUint64(a16[8:], n.key.lo)
			addr = netip.AddrFrom16(a16)
		}
		if !fn(netip.PrefixFrom(addr, int(n.plen)), n.value) {
			return false
		}
	}
	return t.walk(n.child[0], fn) && t.walk(n.child[1], fn)
}
