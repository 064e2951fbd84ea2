package snat

import (
	"encoding/binary"
	"net/netip"
	"sync"
	"testing"
	"time"
	"unsafe"

	"sailfish/internal/netpkt"
	"sailfish/internal/tables"
)

func pool(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = netip.AddrFrom4([4]byte{203, 0, 113, byte(10 + i)})
	}
	return out
}

// seqKey builds the i-th distinct IPv4 session key.
func seqKey(i uint32) tables.SNATKey {
	var s [4]byte
	binary.BigEndian.PutUint32(s[:], 0x0a_00_00_00+i)
	return tables.SNATKey{
		VNI: 42,
		Flow: netpkt.Flow{
			Src:     netip.AddrFrom4(s),
			Dst:     netip.MustParseAddr("93.184.216.34"),
			Proto:   netpkt.IPProtocolTCP,
			SrcPort: uint16(1024 + i%60000),
			DstPort: 443,
		},
	}
}

func at(sec int64) time.Time { return time.Unix(sec, 0) }

// TestRecordPacking pins the ≤32 B/session record envelope the store's
// memory math (100M sessions ≈ 3 GB of records) depends on.
func TestRecordPacking(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != recordBytes {
		t.Fatalf("record is %d bytes, want %d", got, recordBytes)
	}
	if got := unsafe.Sizeof(Delta{}); got != deltaBytes {
		t.Fatalf("Delta is %d bytes, want %d", got, deltaBytes)
	}
}

func TestPackKeyRoundTrip(t *testing.T) {
	k := seqKey(12345)
	k1, k2, ok := packKey(k)
	if !ok {
		t.Fatal("packKey rejected an IPv4 key")
	}
	if got := unpackKey(k1, k2); got != k {
		t.Fatalf("unpack(pack(k)) = %+v, want %+v", got, k)
	}
	v6 := k
	v6.Flow.Src = netip.MustParseAddr("2001:db8::1")
	if _, _, ok := packKey(v6); ok {
		t.Fatal("packKey accepted an IPv6 key")
	}
}

func TestTranslateStableAndDistinct(t *testing.T) {
	st := New(Config{PublicIPs: pool(2), Shards: 8})
	b1, err := st.Translate(seqKey(1), at(0))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := st.Translate(seqKey(2), at(0))
	if err != nil {
		t.Fatal(err)
	}
	if b1 == b2 {
		t.Fatalf("two sessions share binding %v", b1)
	}
	again, err := st.Translate(seqKey(1), at(5))
	if err != nil {
		t.Fatal(err)
	}
	if again != b1 {
		t.Fatalf("binding moved: %v -> %v", b1, again)
	}
	if got, ok := st.Lookup(seqKey(1)); !ok || got != b1 {
		t.Fatalf("Lookup = %v %v", got, ok)
	}
	if st.Sessions() != 2 {
		t.Fatalf("Sessions = %d, want 2", st.Sessions())
	}

	// Within a shard, successive sessions rotate over the public IPs.
	ips := pool(3)
	st = New(Config{PublicIPs: ips, Shards: 1})
	for i := uint32(0); i < 30; i++ {
		b, err := st.Translate(seqKey(i), at(0))
		if err != nil {
			t.Fatal(err)
		}
		if want := ips[i%3]; b.PublicIP != want {
			t.Fatalf("session %d on %v, want round-robin %v", i, b.PublicIP, want)
		}
	}
}

func TestTranslateNotIPv4(t *testing.T) {
	st := New(Config{PublicIPs: pool(1)})
	k := seqKey(1)
	k.Flow.Dst = netip.MustParseAddr("2001:db8::2")
	if _, err := st.Translate(k, at(0)); err != ErrNotIPv4 {
		t.Fatalf("err = %v, want ErrNotIPv4", err)
	}
}

func TestReverseLookupRoundTrip(t *testing.T) {
	st := New(Config{PublicIPs: pool(3), Shards: 16})
	for i := uint32(0); i < 500; i++ {
		k := seqKey(i)
		b, err := st.Translate(k, at(0))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := st.ReverseLookup(b, k.Flow.Dst, k.Flow.DstPort, k.Flow.Proto, at(1))
		if !ok || got != k {
			t.Fatalf("ReverseLookup(%v) = %+v %v, want %+v", b, got, ok, k)
		}
		// A stray packet from the wrong peer is not this session.
		if _, ok := st.ReverseLookup(b, k.Flow.Dst, k.Flow.DstPort+1, k.Flow.Proto, at(1)); ok {
			t.Fatal("ReverseLookup matched the wrong peer port")
		}
	}
	if _, ok := st.ReverseLookup(tables.SNATBinding{
		PublicIP: netip.MustParseAddr("198.51.100.1"), PublicPort: 2000,
	}, netip.MustParseAddr("1.2.3.4"), 443, netpkt.IPProtocolTCP, at(1)); ok {
		t.Fatal("ReverseLookup matched an IP outside the pool")
	}
}

func TestReleaseRecyclesBinding(t *testing.T) {
	st := New(Config{PublicIPs: pool(1), Shards: 1})
	k := seqKey(1)
	b, err := st.Translate(k, at(0))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Release(k) {
		t.Fatal("Release returned false for a live session")
	}
	if st.Release(k) {
		t.Fatal("double Release returned true")
	}
	if _, ok := st.ReverseLookup(b, k.Flow.Dst, k.Flow.DstPort, k.Flow.Proto, at(1)); ok {
		t.Fatal("released session still reverse-resolves")
	}
	if st.Sessions() != 0 {
		t.Fatalf("Sessions = %d after release", st.Sessions())
	}
	// The freed (IP, port) must be reallocatable: exhaust the shard's port
	// range and confirm no pair is lost. The cursor runs up to port 65535,
	// wraps to snatPortMin and only then reaches the freed pair, which goes
	// to the last new session with its reverse entry.
	seen := map[tables.SNATBinding]bool{}
	var last tables.SNATBinding
	var lastKey tables.SNATKey
	for i := uint32(0); ; i++ {
		kk := seqKey(100 + i)
		bb, err := st.Translate(kk, at(0))
		if err != nil {
			break
		}
		if seen[bb] {
			t.Fatalf("binding %v allocated twice", bb)
		}
		if last.PublicPort == 65535 && bb.PublicPort != snatPortMin {
			t.Fatalf("cursor did not wrap: port %d after 65535", bb.PublicPort)
		}
		seen[bb] = true
		last, lastKey = bb, kk
	}
	if len(seen) != portSpace {
		t.Fatalf("allocated %d bindings, want %d", len(seen), portSpace)
	}
	if last != b {
		t.Fatalf("last allocation %v, want the freed pair %v", last, b)
	}
	if got, ok := st.ReverseLookup(b, lastKey.Flow.Dst, lastKey.Flow.DstPort, lastKey.Flow.Proto, at(1)); !ok || got != lastKey {
		t.Fatalf("reused pair reverse-resolves to %+v %v, want %+v", got, ok, lastKey)
	}
}

func TestExhaustion(t *testing.T) {
	st := New(Config{PublicIPs: nil})
	if _, err := st.Translate(seqKey(1), at(0)); err != ErrExhausted {
		t.Fatalf("empty pool: err = %v, want ErrExhausted", err)
	}
	st = New(Config{PublicIPs: pool(1), Shards: 4})
	// One shard's slice of a single IP's ports.
	perShard := portSpace / 4
	k := seqKey(7)
	s := st.shardFor(k)
	filled := 0
	for i := uint32(0); int(i) < portSpace; i++ {
		kk := seqKey(7 + i*4096) // vary; keep only those landing on k's shard
		if st.shardFor(kk) != s {
			continue
		}
		if _, err := st.Translate(kk, at(0)); err != nil {
			if err != ErrExhausted {
				t.Fatalf("err = %v", err)
			}
			break
		}
		filled++
	}
	if filled != perShard {
		t.Fatalf("shard accepted %d sessions, want its port slice %d", filled, perShard)
	}

	// A full IP is skipped: with the first IP's ports all owned, the
	// allocator moves on to the next IP within the same call.
	ips := pool(2)
	st = New(Config{PublicIPs: ips, Shards: 1})
	for off := 0; off < st.portsPerShard; off++ {
		st.shards[0].portOwner[off] = 1
	}
	b, err := st.Translate(seqKey(1), at(0))
	if err != nil || b.PublicIP != ips[1] {
		t.Fatalf("full first IP: got %v (%v), want a port on %v", b, err, ips[1])
	}
}

func TestExpireIdleFullSweep(t *testing.T) {
	st := New(Config{PublicIPs: pool(2), Shards: 8})
	for i := uint32(0); i < 100; i++ {
		if _, err := st.Translate(seqKey(i), at(100)); err != nil {
			t.Fatal(err)
		}
	}
	// Translate seeds the idle timer: sessions never Touched survive until
	// creation + ttl.
	if n := st.ExpireIdle(at(129), 30*time.Second); n != 0 {
		t.Fatalf("expired %d sessions before their ttl", n)
	}
	// Refresh half at t=150.
	for i := uint32(0); i < 50; i++ {
		st.Touch(seqKey(i), at(150))
	}
	if n := st.ExpireIdle(at(160), 30*time.Second); n != 50 {
		t.Fatalf("expired %d, want 50", n)
	}
	if st.Sessions() != 50 {
		t.Fatalf("Sessions = %d, want 50", st.Sessions())
	}
	for i := uint32(0); i < 50; i++ {
		if _, ok := st.Lookup(seqKey(i)); !ok {
			t.Fatalf("refreshed session %d was reaped", i)
		}
	}
}

// TestReapIdleIncremental drives the bounded-cursor reaper: each call scans
// a fixed slot budget, so aging completes over several calls instead of one
// full-table stall.
func TestReapIdleIncremental(t *testing.T) {
	st := New(Config{PublicIPs: pool(2), Shards: 2})
	const n = 2000
	for i := uint32(0); i < n; i++ {
		if _, err := st.Translate(seqKey(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	slots := 0
	for i := 0; i < st.ShardCount(); i++ {
		slots += st.StatsShard(i).Slots
	}
	budget := slots / 8
	reaped, calls := 0, 0
	for reaped < n {
		calls++
		if calls > 100 {
			t.Fatalf("reaper stalled: %d/%d after %d calls", reaped, n, calls)
		}
		got := st.ReapIdle(at(3600), time.Second, budget)
		if got > budget {
			t.Fatalf("one call reaped %d > budget %d", got, budget)
		}
		reaped += got
	}
	if st.Sessions() != 0 {
		t.Fatalf("Sessions = %d after full reap", st.Sessions())
	}
	// Idle sessions under ttl survive the scan.
	if _, err := st.Translate(seqKey(0), at(3600)); err != nil {
		t.Fatal(err)
	}
	if got := st.ReapIdle(at(3600), time.Hour, slots); got != 0 {
		t.Fatalf("reaped %d fresh sessions", got)
	}
}

// TestRehashKeepsReverseIndex grows shards far past the initial slot table
// and checks the port-owner index follows the moved slots.
// TestShardDistributionEven guards the shard-selection mix: realistic
// traffic (few client IPs, sequential source ports, one server) must spread
// across shards instead of piling onto a few — FNV-1a's raw low bits do
// exactly that pile-up, exhausting some shards' port spaces while others
// sit empty.
func TestShardDistributionEven(t *testing.T) {
	st := New(Config{PublicIPs: pool(2), Shards: 8})
	const n = 40000
	counts := make([]int, st.ShardCount())
	for i := uint32(0); i < n; i++ {
		counts[st.shardIndex(seqKey(i))]++
	}
	mean := n / st.ShardCount()
	for s, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("shard %d holds %d of %d keys (mean %d): distribution skewed %v",
				s, c, n, mean, counts)
		}
	}
}

func TestRehashKeepsReverseIndex(t *testing.T) {
	st := New(Config{PublicIPs: pool(4), Shards: 2})
	const n = 20000 // >> initial 1024 slots per shard: multiple rehashes
	for i := uint32(0); i < n; i++ {
		if _, err := st.Translate(seqKey(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < n; i += 97 {
		k := seqKey(i)
		b, ok := st.Lookup(k)
		if !ok {
			t.Fatalf("session %d lost after rehash", i)
		}
		got, ok := st.ReverseLookup(b, k.Flow.Dst, k.Flow.DstPort, k.Flow.Proto, at(1))
		if !ok || got != k {
			t.Fatalf("reverse index stale after rehash: %v -> %+v %v", b, got, ok)
		}
	}
}

// TestTranslateZeroAllocs pins the hot paths at zero allocations per op —
// the envelope the fastpath bench guards in CI.
func TestTranslateZeroAllocs(t *testing.T) {
	st := New(Config{PublicIPs: pool(2), Shards: 8})
	k := seqKey(1)
	b, err := st.Translate(k, at(0))
	if err != nil {
		t.Fatal(err)
	}
	now := at(0) // fixed stamp: the steady hit path, no journal refresh
	if a := testing.AllocsPerRun(200, func() {
		if _, err := st.Translate(k, now); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("Translate hit path allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() {
		if _, ok := st.ReverseLookup(b, k.Flow.Dst, k.Flow.DstPort, k.Flow.Proto, now); !ok {
			t.Fatal("lost session")
		}
	}); a != 0 {
		t.Fatalf("ReverseLookup allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(200, func() { st.Touch(k, now) }); a != 0 {
		t.Fatalf("Touch allocates %.1f/op", a)
	}
}

// TestSessionsConcurrent exercises the atomic per-shard counters under
// parallel translate/read load; meaningful under -race (Makefile RACE_PKGS).
func TestSessionsConcurrent(t *testing.T) {
	st := New(Config{PublicIPs: pool(4), Shards: 16})
	var wg sync.WaitGroup
	const workers, per = 4, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := seqKey(uint32(w*per + i))
				if _, err := st.Translate(k, at(0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = st.Sessions()
				_ = st.MemoryBytes()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rd.Wait()
	if got := st.Sessions(); got != workers*per {
		t.Fatalf("Sessions = %d, want %d", got, workers*per)
	}
}

func TestMemoryBytesAccounts(t *testing.T) {
	st := New(Config{PublicIPs: pool(2), Shards: 4, JournalDepth: 128})
	base := st.MemoryBytes()
	if base == 0 {
		t.Fatal("empty store reports zero footprint (port index and journals exist)")
	}
	for i := uint32(0); i < 50000; i++ {
		if _, err := st.Translate(seqKey(i), at(0)); err != nil {
			t.Fatal(err)
		}
	}
	grown := st.MemoryBytes()
	if grown <= base {
		t.Fatalf("footprint did not grow: %d -> %d", base, grown)
	}
	perSession := float64(grown-base) / 50000
	if perSession > 4*recordBytes {
		t.Fatalf("%.1f B/session of table growth; slot tables should stay within 4x the record size", perSession)
	}
}
