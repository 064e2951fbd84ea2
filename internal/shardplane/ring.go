// Package shardplane is the multi-core software data plane: an N-shard
// run-to-completion pipeline in front of a cluster.Region, shaped like the
// paper's XGW-x86 receive path — NIC RSS spreads flows across per-core
// queues and each core runs its packets to completion with no cross-core
// locks. Here the "NIC" is a single dispatcher goroutine hashing each
// packet's flow (the same steering flow hash the front end uses, so a flow's
// packets always land on one shard and SNAT/trace/heavy-hitter state keeps
// per-flow affinity), the per-core queue is a bounded SPSC ring with
// cache-line-padded positions, and each shard worker drives its own
// cluster.Lane: private packet scratch, private stats counters, and — when
// enabled — a private flight recorder and heavy-hitter tracker, all merged
// on scrape into the exact taxonomy the single-path region reports.
package shardplane

import (
	"runtime"
	"sync/atomic"
	"time"
)

// cacheLinePad keeps the producer- and consumer-owned ring positions on
// separate cache lines so the two sides never false-share.
type cacheLinePad [64]byte

// Ring is a bounded single-producer single-consumer packet queue. Payloads
// are stored inline: one backing arena of slots×maxPacket bytes allocated at
// construction, so pushing copies the frame and neither side ever touches
// the heap. The producer owns tail (and a cached view of head), the
// consumer owns head (and a cached view of tail); each position is read by
// the other side with a single atomic load only when its cached view runs
// out — the classic SPSC fast path of one store per op.
//
// Contract: exactly one goroutine calls Push and exactly one goroutine
// calls Peek/Advance. The Plane's dispatcher and shard workers uphold this.
type Ring struct {
	mask      uint64
	maxPacket int
	buf       []byte  // slot i's payload at buf[i*maxPacket:]
	lens      []int32 // slot payload lengths
	times     []int64 // slot packet clocks (UnixNano)

	_    cacheLinePad
	head atomic.Uint64 // next slot to consume; advanced by the consumer
	_    cacheLinePad
	tail atomic.Uint64 // next slot to fill; advanced by the producer
	_    cacheLinePad
	// cachedHead is the producer's last-seen head: the producer re-reads
	// head atomically only when the ring looks full against the cache.
	cachedHead uint64
	_          cacheLinePad
	// cachedTail is the consumer's last-seen tail, refreshed only when the
	// ring looks empty against the cache.
	cachedTail uint64
	_          cacheLinePad
}

// ceilPow2 rounds n up to a power of two, with a floor default.
func ceilPow2(n, def int) int {
	if n <= 0 {
		n = def
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewRing builds a ring of the given slot count (rounded up to a power of
// two, default 1024) and per-slot payload capacity (default 2048 bytes).
func NewRing(slots, maxPacket int) *Ring {
	slots = ceilPow2(slots, 1024)
	if maxPacket <= 0 {
		maxPacket = 2048
	}
	return &Ring{
		mask:      uint64(slots - 1),
		maxPacket: maxPacket,
		buf:       make([]byte, slots*maxPacket),
		lens:      make([]int32, slots),
		times:     make([]int64, slots),
	}
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return int(r.mask + 1) }

// MaxPacket returns the per-slot payload capacity.
func (r *Ring) MaxPacket() int { return r.maxPacket }

// Len returns the current queue depth. Exact for either ring endpoint; a
// (possibly slightly stale) snapshot for observers.
func (r *Ring) Len() int {
	return int(r.tail.Load() - r.head.Load())
}

// Push copies one frame and its packet clock into the ring. It returns
// false — without blocking or spinning — when the ring is full or the frame
// exceeds the slot capacity; the caller owns backpressure. Producer side
// only.
func (r *Ring) Push(p []byte, nowNs int64) bool {
	if len(p) > r.maxPacket {
		return false
	}
	t := r.tail.Load() // own position: plain value, atomic for observers
	if t-r.cachedHead > r.mask {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead > r.mask {
			return false // full
		}
	}
	i := t & r.mask
	copy(r.buf[int(i)*r.maxPacket:], p)
	r.lens[i] = int32(len(p))
	r.times[i] = nowNs
	r.tail.Store(t + 1) // release: publishes the payload to the consumer
	return true
}

// Peek returns the next frame and its packet clock without consuming it.
// The slice aliases the ring's arena and is valid until Advance. Consumer
// side only.
func (r *Ring) Peek() (p []byte, nowNs int64, ok bool) {
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load() // acquire: pairs with Push's store
		if h == r.cachedTail {
			return nil, 0, false // empty
		}
	}
	i := h & r.mask
	off := int(i) * r.maxPacket
	return r.buf[off : off+int(r.lens[i])], r.times[i], true
}

// Advance releases the slot returned by the last Peek back to the producer.
// Consumer side only.
func (r *Ring) Advance() {
	r.head.Store(r.head.Load() + 1)
}

// Consume is the consumer's run loop: it hands each frame and its packet
// clock to handle, then releases the slot, until closed is set and the ring
// is empty. When idle it backs off (spin → yield → sleep), so an idle
// consumer doesn't burn its core while a busy one never reaches the sleep
// tier. The producer must finish its last Push before setting closed; a
// frame pushed between a failed Peek and the closed load is then caught by
// one re-check, so no accepted frame is stranded. handle must not retain
// the frame past its return. Consumer side only.
func (r *Ring) Consume(closed *atomic.Bool, handle func(p []byte, nowNs int64)) {
	idle := 0
	for {
		p, ns, ok := r.Peek()
		if !ok {
			if closed.Load() {
				if _, _, again := r.Peek(); again {
					continue
				}
				return
			}
			idle++
			switch {
			case idle < 64:
				// spin: the producer is usually mid-burst
			case idle < 256:
				runtime.Gosched()
			default:
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idle = 0
		handle(p, ns)
		r.Advance()
	}
}
