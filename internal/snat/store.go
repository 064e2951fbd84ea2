// Package snat is the survivable stateful source-NAT subsystem held by the
// XGW-x86 pool (§4.2, Fig. 11). Production session counts reach O(100M) —
// far beyond switch SRAM, which is exactly why the table lives in software
// DRAM — so the store is built for that scale:
//
//   - N power-of-two shards selected by the same end-to-end flow hash the
//     front end and the NIC RSS use, so one session always lands on one
//     shard and shards never coordinate;
//   - each shard is a compact open-addressed table of 32-byte packed
//     records (public-IP pool index + port + packed idle stamp), so 100M
//     sessions fits in a few GB of resident records;
//   - per-shard port allocators: the public port range is partitioned
//     across shards, which doubles as the reverse-path routing function —
//     a response's destination port alone names the owning shard;
//   - incremental idle reaping with a bounded per-call scan cursor, so
//     aging never stalls the data plane the way a full-table sweep does;
//   - a bounded per-shard delta journal (journal.go) a standby replays to
//     keep a promotable copy (replicate.go, service.go).
//
// The store is safe for concurrent use; each operation takes one shard
// mutex. The hot paths (Translate, ReverseLookup, Touch) are allocation-free.
package snat

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
)

// Store errors. Port exhaustion reuses tables.ErrSNATExhausted so callers
// (and the xgw86 drop taxonomy) need no new case.
var (
	// ErrExhausted reports that no public IP/port is free in the session's
	// shard.
	ErrExhausted = tables.ErrSNATExhausted
	// ErrNotIPv4 reports a session key whose addresses are not IPv4;
	// production SNAT is IPv4-only (v6 uses different prefixes entirely).
	ErrNotIPv4 = errors.New("snat: session key is not IPv4")
)

// snatPortMin is the first allocatable source port; low ports are reserved.
const snatPortMin = 1024

// portSpace is the allocatable port count per public IP.
const portSpace = 65536 - snatPortMin

// Config shapes a sharded store.
type Config struct {
	// PublicIPs is the SNAT public address pool, shared by every shard
	// (each shard owns a disjoint port range on every IP).
	PublicIPs []netip.Addr
	// Shards is the shard count; power of two in [1, 1024], default 8.
	Shards int
	// JournalDepth bounds each shard's replication journal (delta count);
	// 0 disables journaling (standalone store with no standby).
	JournalDepth int
	// Epoch anchors the packed 32-bit idle stamps (seconds since Epoch).
	// Zero means time.Unix(0, 0); a store and its standby must agree.
	Epoch time.Time
}

// withDefaults normalizes a config.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	// Round down to a power of two and keep the port partition exact:
	// portSpace = 64512 = 1024 × 63 divides evenly by any power of two up
	// to 1024.
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards &= c.Shards - 1
	}
	if c.Shards > 1024 {
		c.Shards = 1024
	}
	if c.Epoch.IsZero() {
		c.Epoch = time.Unix(0, 0)
	}
	return c
}

// Slot states. Deletion tombstones keep probe chains intact and keep live
// slot indexes stable for the port-owner index; rehashes purge them.
const (
	slotEmpty uint8 = iota
	slotLive
	slotTomb
)

// record is one packed session: 32 bytes, no pointers, so 100M sessions is
// ~3 GB of records and the GC never walks them.
//
//	k1     — inner src IPv4 (hi 32) | inner dst IPv4 (lo 32)
//	k2     — VNI (24 bits) | proto (8) | src port (16) | dst port (16)
//	ipIdx  — index into the public-IP pool
//	port   — allocated public port
//	idleAt — last-traffic stamp, seconds since the store epoch
//	state  — slotEmpty / slotLive / slotTomb
type record struct {
	k1, k2 uint64
	ipIdx  uint16
	port   uint16
	idleAt uint32
	state  uint8
}

// recordBytes is the padded in-memory record size; the ≤32 B/session
// packing claim, asserted by TestRecordPacking.
const recordBytes = 32

// shard is one lock domain: an open-addressed slot table plus the port
// allocator for this shard's slice of the port space on every public IP.
type shard struct {
	mu    sync.Mutex
	slots []record
	// used counts live + tombstoned slots (the probe-chain load); live is
	// the session count, atomic so Sessions() and scrapes never take mu.
	used int
	live atomic.Int64

	// portLo is the first port this shard owns (on every IP); portOwner
	// maps (ipIdx × portsPerShard + port-portLo) → slot index + 1, serving
	// as both the allocator's in-use check and the reverse-lookup index.
	portLo    uint16
	portOwner []uint32
	// nextOff is the per-IP rotating allocation cursor; nextIP rotates the
	// starting IP so the pool fills evenly.
	nextOff []uint32
	nextIP  int

	reapCursor int

	j journal
}

// Store is the sharded session store.
type Store struct {
	cfg       Config
	shards    []shard
	shardMask uint64
	// portsPerShard is each shard's port-range width per public IP; the
	// reverse path recovers the shard as (port − snatPortMin) / width.
	portsPerShard int
	ipIndex       map[netip.Addr]uint16 // read-only after New
	epochUnix     int64
}

// New returns an empty store.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	st := &Store{
		cfg:           cfg,
		shards:        make([]shard, cfg.Shards),
		shardMask:     uint64(cfg.Shards - 1),
		portsPerShard: portSpace / cfg.Shards,
		ipIndex:       make(map[netip.Addr]uint16, len(cfg.PublicIPs)),
		epochUnix:     cfg.Epoch.Unix(),
	}
	for i, ip := range cfg.PublicIPs {
		st.ipIndex[ip.Unmap()] = uint16(i)
	}
	for i := range st.shards {
		s := &st.shards[i]
		s.portLo = uint16(snatPortMin + i*st.portsPerShard)
		s.portOwner = make([]uint32, len(cfg.PublicIPs)*st.portsPerShard)
		s.nextOff = make([]uint32, len(cfg.PublicIPs))
		s.j.init(cfg.JournalDepth)
	}
	return st
}

// Config returns the store's normalized configuration.
func (st *Store) Config() Config { return st.cfg }

// ShardCount returns the shard count.
func (st *Store) ShardCount() int { return len(st.shards) }

// stamp packs an instant into epoch-relative seconds.
func (st *Store) stamp(now time.Time) uint32 {
	s := now.Unix() - st.epochUnix
	if s < 0 {
		return 0
	}
	return uint32(s)
}

// packKey flattens a session key into two words; ok is false for non-IPv4.
func packKey(k tables.SNATKey) (k1, k2 uint64, ok bool) {
	src, dst := k.Flow.Src.Unmap(), k.Flow.Dst.Unmap()
	if !src.Is4() || !dst.Is4() {
		return 0, 0, false
	}
	s4, d4 := src.As4(), dst.As4()
	k1 = uint64(binary.BigEndian.Uint32(s4[:]))<<32 | uint64(binary.BigEndian.Uint32(d4[:]))
	k2 = uint64(k.VNI)<<40 | uint64(k.Flow.Proto)<<32 |
		uint64(k.Flow.SrcPort)<<16 | uint64(k.Flow.DstPort)
	return k1, k2, true
}

// unpackKey is the inverse of packKey; allocation-free.
func unpackKey(k1, k2 uint64) tables.SNATKey {
	var s4, d4 [4]byte
	binary.BigEndian.PutUint32(s4[:], uint32(k1>>32))
	binary.BigEndian.PutUint32(d4[:], uint32(k1))
	return tables.SNATKey{
		VNI: netpkt.VNI(k2 >> 40),
		Flow: netpkt.Flow{
			Src:     netip.AddrFrom4(s4),
			Dst:     netip.AddrFrom4(d4),
			Proto:   netpkt.IPProtocol(k2 >> 32),
			SrcPort: uint16(k2 >> 16),
			DstPort: uint16(k2),
		},
	}
}

// slotIndex mixes the packed key into a starting probe index.
func slotIndex(k1, k2 uint64, mask uint64) uint64 {
	h := k1*0x9E3779B97F4A7C15 ^ k2*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h & mask
}

// find returns the slot index holding (k1, k2), or -1.
func (s *shard) find(k1, k2 uint64) int {
	if len(s.slots) == 0 {
		return -1
	}
	mask := uint64(len(s.slots) - 1)
	for i := slotIndex(k1, k2, mask); ; i = (i + 1) & mask {
		r := &s.slots[i]
		if r.state == slotEmpty {
			return -1
		}
		if r.state == slotLive && r.k1 == k1 && r.k2 == k2 {
			return int(i)
		}
	}
}

// ownerOff returns a record's index into portOwner.
func (s *shard) ownerOff(st *Store, ipIdx, port uint16) int {
	return int(ipIdx)*st.portsPerShard + int(port-s.portLo)
}

// place inserts a record into the slot table (growing as needed) and points
// the port-owner index at it. The key must not already be present.
func (s *shard) place(st *Store, rec record) int {
	if len(s.slots) == 0 || (s.used+1)*4 > len(s.slots)*3 {
		s.rehash(st)
	}
	mask := uint64(len(s.slots) - 1)
	i := slotIndex(rec.k1, rec.k2, mask)
	for s.slots[i].state == slotLive {
		i = (i + 1) & mask
	}
	if s.slots[i].state == slotEmpty {
		s.used++
	}
	s.slots[i] = rec
	s.portOwner[s.ownerOff(st, rec.ipIdx, rec.port)] = uint32(i) + 1
	s.live.Add(1)
	return int(i)
}

// rehash rebuilds the slot table — doubled when genuinely full, same-sized
// when tombstones are the load — and repoints the port-owner index at the
// moved slots.
func (s *shard) rehash(st *Store) {
	newCap := 1024
	if len(s.slots) > 0 {
		live := int(s.live.Load())
		newCap = len(s.slots)
		if (live+1)*2 >= newCap {
			newCap *= 2
		}
	}
	old := s.slots
	s.slots = make([]record, newCap)
	s.used = 0
	mask := uint64(newCap - 1)
	for i := range old {
		r := &old[i]
		if r.state != slotLive {
			continue
		}
		j := slotIndex(r.k1, r.k2, mask)
		for s.slots[j].state == slotLive {
			j = (j + 1) & mask
		}
		s.slots[j] = *r
		s.portOwner[s.ownerOff(st, r.ipIdx, r.port)] = uint32(j) + 1
		s.used++
	}
}

// release tombstones a slot, frees its port and (optionally) journals the
// teardown. Callers hold s.mu.
func (s *shard) release(st *Store, slot int, journal bool) {
	r := &s.slots[slot]
	s.portOwner[s.ownerOff(st, r.ipIdx, r.port)] = 0
	if journal {
		s.j.append(Delta{Op: OpRelease, K1: r.k1, K2: r.k2, IPIdx: r.ipIdx, Port: r.port, Stamp: r.idleAt})
	}
	r.state = slotTomb
	s.live.Add(-1)
}

// allocate finds a free (public IP, port) pair inside the shard's port
// range, rotating over IPs and ports so the pool fills evenly. ok is false
// when the shard's slice of the port space is exhausted.
func (s *shard) allocate(st *Store) (ipIdx, port uint16, ok bool) {
	nIPs := len(s.nextOff)
	for n := 0; n < nIPs; n++ {
		ip := (s.nextIP + n) % nIPs
		base := ip * st.portsPerShard
		start := s.nextOff[ip]
		for tries := 0; tries < st.portsPerShard; tries++ {
			off := (start + uint32(tries)) % uint32(st.portsPerShard)
			if s.portOwner[base+int(off)] == 0 {
				s.nextOff[ip] = (off + 1) % uint32(st.portsPerShard)
				s.nextIP = (ip + 1) % nIPs
				return uint16(ip), s.portLo + uint16(off), true
			}
		}
	}
	return 0, 0, false
}

// shardFor picks the session's shard by the end-to-end flow hash — the same
// value the front end steers by, so a flow's forward packets always reach
// the same shard without coordination. FNV-1a's low bits are weak for
// structured five-tuples, so the hash goes through a 64-bit finalizer mix
// before masking; without it real traffic (one server, sequential client
// ports) piles whole port-spaces onto a few shards and exhausts them while
// others sit empty.
func (st *Store) shardFor(k tables.SNATKey) *shard {
	return &st.shards[st.shardIndex(k)]
}

// shardIndex returns the shard number a session key maps to.
func (st *Store) shardIndex(k tables.SNATKey) int {
	h := k.Flow.FastHash()
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h & st.shardMask)
}

// Translate returns the session's binding, allocating one on first use and
// refreshing the idle stamp on every call (callers need no separate Touch on
// the outbound path). Allocation-free on the hit path.
func (st *Store) Translate(k tables.SNATKey, now time.Time) (tables.SNATBinding, error) {
	k1, k2, ok := packKey(k)
	if !ok {
		return tables.SNATBinding{}, ErrNotIPv4
	}
	stamp := st.stamp(now)
	s := st.shardFor(k)
	s.mu.Lock()
	if i := s.find(k1, k2); i >= 0 {
		r := &s.slots[i]
		if r.idleAt != stamp {
			r.idleAt = stamp
			s.j.append(Delta{Op: OpRefresh, K1: k1, K2: k2, IPIdx: r.ipIdx, Port: r.port, Stamp: stamp})
		}
		b := tables.SNATBinding{PublicIP: st.cfg.PublicIPs[r.ipIdx], PublicPort: r.port}
		s.mu.Unlock()
		return b, nil
	}
	ipIdx, port, ok := s.allocate(st)
	if !ok {
		s.mu.Unlock()
		return tables.SNATBinding{}, ErrExhausted
	}
	s.place(st, record{k1: k1, k2: k2, ipIdx: ipIdx, port: port, idleAt: stamp, state: slotLive})
	s.j.append(Delta{Op: OpCreate, K1: k1, K2: k2, IPIdx: ipIdx, Port: port, Stamp: stamp})
	b := tables.SNATBinding{PublicIP: st.cfg.PublicIPs[ipIdx], PublicPort: port}
	s.mu.Unlock()
	return b, nil
}

// Lookup returns the existing binding without allocating or refreshing.
func (st *Store) Lookup(k tables.SNATKey) (tables.SNATBinding, bool) {
	k1, k2, ok := packKey(k)
	if !ok {
		return tables.SNATBinding{}, false
	}
	s := st.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.find(k1, k2); i >= 0 {
		r := &s.slots[i]
		return tables.SNATBinding{PublicIP: st.cfg.PublicIPs[r.ipIdx], PublicPort: r.port}, true
	}
	return tables.SNATBinding{}, false
}

// ReverseLookup maps a response packet — arriving at public (ip, port) from
// peer (peerIP, peerPort) — back to the originating session key, refreshing
// the session's idle stamp. The destination port alone names the owning
// shard (the port space is partitioned across shards), so the reverse path
// needs no second hash table. Allocation-free.
func (st *Store) ReverseLookup(b tables.SNATBinding, peerIP netip.Addr, peerPort uint16, proto netpkt.IPProtocol, now time.Time) (tables.SNATKey, bool) {
	ipIdx, ok := st.ipIndex[b.PublicIP.Unmap()]
	if !ok || b.PublicPort < snatPortMin {
		return tables.SNATKey{}, false
	}
	off := int(b.PublicPort) - snatPortMin
	s := &st.shards[off/st.portsPerShard]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.portOwner[s.ownerOff(st, ipIdx, b.PublicPort)]
	if slot == 0 {
		return tables.SNATKey{}, false
	}
	r := &s.slots[slot-1]
	k := unpackKey(r.k1, r.k2)
	// The session's own peer must match the responder — a stray packet at
	// an allocated port from the wrong remote is not this session.
	if k.Flow.Dst != peerIP || k.Flow.DstPort != peerPort || k.Flow.Proto != proto {
		return tables.SNATKey{}, false
	}
	if stamp := st.stamp(now); r.idleAt != stamp {
		r.idleAt = stamp
		s.j.append(Delta{Op: OpRefresh, K1: r.k1, K2: r.k2, IPIdx: r.ipIdx, Port: r.port, Stamp: stamp})
	}
	return k, true
}

// Touch refreshes a session's idle stamp, if it exists.
func (st *Store) Touch(k tables.SNATKey, now time.Time) {
	k1, k2, ok := packKey(k)
	if !ok {
		return
	}
	stamp := st.stamp(now)
	s := st.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := s.find(k1, k2); i >= 0 {
		r := &s.slots[i]
		if r.idleAt != stamp {
			r.idleAt = stamp
			s.j.append(Delta{Op: OpRefresh, K1: k1, K2: k2, IPIdx: r.ipIdx, Port: r.port, Stamp: stamp})
		}
	}
}

// Release tears down a session, freeing its public port.
func (st *Store) Release(k tables.SNATKey) bool {
	k1, k2, ok := packKey(k)
	if !ok {
		return false
	}
	s := st.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.find(k1, k2)
	if i < 0 {
		return false
	}
	s.release(st, i, true)
	return true
}

// ttlStamps converts an idle ttl to whole stamp seconds, rounding up so a
// sub-second ttl still means "at least one stamp tick idle".
func ttlStamps(ttl time.Duration) uint32 {
	s := (ttl + time.Second - 1) / time.Second
	if s < 1 {
		s = 1
	}
	return uint32(s)
}

// ReapIdle releases sessions idle for at least ttl, scanning at most
// maxScan slots across the shards from each shard's persistent cursor, and
// returns the number released. This is the incremental replacement for a
// full-table sweep: a caller invoking it once per tick with a bounded
// budget amortizes aging over time and never stalls the data plane, while
// the cursor guarantees every slot is eventually visited.
func (st *Store) ReapIdle(now time.Time, ttl time.Duration, maxScan int) int {
	if maxScan <= 0 {
		return 0
	}
	nowStamp, need := st.stamp(now), ttlStamps(ttl)
	perShard := maxScan / len(st.shards)
	if perShard < 1 {
		perShard = 1
	}
	reaped := 0
	for i := range st.shards {
		reaped += st.shards[i].reap(st, nowStamp, need, perShard)
	}
	return reaped
}

// ExpireIdle releases every session idle for at least ttl — the legacy
// full-sweep semantics, equivalent to ReapIdle with an unbounded budget.
func (st *Store) ExpireIdle(now time.Time, ttl time.Duration) int {
	nowStamp, need := st.stamp(now), ttlStamps(ttl)
	reaped := 0
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		reaped += s.reapLocked(st, nowStamp, need, len(s.slots), 0)
		s.mu.Unlock()
	}
	return reaped
}

// reap scans up to budget slots from the shard's cursor.
func (s *shard) reap(st *Store, nowStamp, need uint32, budget int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slots) == 0 {
		return 0
	}
	if s.reapCursor >= len(s.slots) {
		s.reapCursor = 0
	}
	n := s.reapLocked(st, nowStamp, need, budget, s.reapCursor)
	s.reapCursor = (s.reapCursor + budget) % len(s.slots)
	return n
}

// reapLocked releases idle sessions in slots [from, from+budget) mod len.
func (s *shard) reapLocked(st *Store, nowStamp, need uint32, budget, from int) int {
	if len(s.slots) == 0 {
		return 0
	}
	if budget > len(s.slots) {
		budget = len(s.slots)
	}
	n := 0
	for i := 0; i < budget; i++ {
		slot := (from + i) % len(s.slots)
		r := &s.slots[slot]
		if r.state == slotLive && nowStamp >= r.idleAt && nowStamp-r.idleAt >= need {
			s.release(st, slot, true)
			n++
		}
	}
	return n
}

// Sessions returns the live session count from the per-shard atomic
// counters — exact and safe to read from any goroutine while traffic flows.
func (st *Store) Sessions() int {
	n := int64(0)
	for i := range st.shards {
		n += st.shards[i].live.Load()
	}
	return int(n)
}

// Len is Sessions, mirroring the legacy table's method set.
func (st *Store) Len() int { return st.Sessions() }

// MemoryBytes estimates the store's resident table footprint: slot records,
// the port-owner index, allocator cursors and journal rings.
func (st *Store) MemoryBytes() uint64 {
	var b uint64
	for i := range st.shards {
		s := &st.shards[i]
		s.mu.Lock()
		b += uint64(len(s.slots))*recordBytes +
			uint64(len(s.portOwner))*4 +
			uint64(len(s.nextOff))*4 +
			uint64(cap(s.j.ring))*deltaBytes
		s.mu.Unlock()
	}
	return b
}

// ShardStats is one shard's occupancy and journal position.
type ShardStats struct {
	Shard int
	// Live is the session count; Slots the allocated slot-table size;
	// PortCapacity the shard's allocatable (IP, port) pairs.
	Live         int
	Slots        int
	PortCapacity int
	// JournalFirst/JournalNext bound the retained delta window
	// [JournalFirst, JournalNext).
	JournalFirst, JournalNext uint64
}

// StatsShard snapshots one shard.
func (st *Store) StatsShard(i int) ShardStats {
	s := &st.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShardStats{
		Shard:        i,
		Live:         int(s.live.Load()),
		Slots:        len(s.slots),
		PortCapacity: len(s.portOwner),
		JournalFirst: s.j.first,
		JournalNext:  s.j.next,
	}
}

// rangeLive calls fn under the shard lock for every live record in shard i.
func (st *Store) rangeLive(i int, fn func(r *record)) {
	s := &st.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	for j := range s.slots {
		if s.slots[j].state == slotLive {
			fn(&s.slots[j])
		}
	}
}

// bindingOf returns shard i's binding for a packed key, for diffing a
// standby against its primary at promotion time.
func (st *Store) bindingOf(i int, k1, k2 uint64) (ipIdx, port uint16, ok bool) {
	s := &st.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.find(k1, k2); j >= 0 {
		return s.slots[j].ipIdx, s.slots[j].port, true
	}
	return 0, 0, false
}
