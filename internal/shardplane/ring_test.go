package shardplane

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRingDefaultsAndRounding(t *testing.T) {
	r := NewRing(0, 0)
	if r.Cap() != 1024 || r.MaxPacket() != 2048 {
		t.Fatalf("defaults: cap=%d maxPacket=%d", r.Cap(), r.MaxPacket())
	}
	r = NewRing(5, 100)
	if r.Cap() != 8 || r.MaxPacket() != 100 {
		t.Fatalf("rounding: cap=%d maxPacket=%d", r.Cap(), r.MaxPacket())
	}
}

func TestRingFillDrainWrap(t *testing.T) {
	r := NewRing(4, 64)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d", r.Cap())
	}
	// Push/peek/advance across several times the capacity so the positions
	// wrap; every payload and packet clock must come back intact.
	seq := 0
	for round := 0; round < 5; round++ {
		// Fill to capacity.
		pushed := []int{}
		for {
			p := []byte(fmt.Sprintf("pkt-%d", seq))
			if !r.Push(p, int64(seq)) {
				break
			}
			pushed = append(pushed, seq)
			seq++
		}
		if len(pushed) != r.Cap() {
			t.Fatalf("round %d: pushed %d, want %d", round, len(pushed), r.Cap())
		}
		if r.Len() != r.Cap() {
			t.Fatalf("round %d: Len = %d after fill", round, r.Len())
		}
		// A full ring must reject without corrupting state.
		if r.Push([]byte("overflow"), 0) {
			t.Fatal("push succeeded on a full ring")
		}
		// Drain in FIFO order.
		for _, want := range pushed {
			p, ns, ok := r.Peek()
			if !ok {
				t.Fatalf("round %d: ring empty with %d expected", round, want)
			}
			if !bytes.Equal(p, []byte(fmt.Sprintf("pkt-%d", want))) || ns != int64(want) {
				t.Fatalf("round %d: got (%q, %d), want pkt-%d", round, p, ns, want)
			}
			r.Advance()
		}
		if _, _, ok := r.Peek(); ok {
			t.Fatalf("round %d: ring not empty after drain", round)
		}
		if r.Len() != 0 {
			t.Fatalf("round %d: Len = %d after drain", round, r.Len())
		}
	}
}

func TestRingOversizeRejected(t *testing.T) {
	r := NewRing(4, 8)
	if r.Push(make([]byte, 9), 0) {
		t.Fatal("oversize frame accepted")
	}
	if !r.Push(make([]byte, 8), 0) {
		t.Fatal("max-size frame rejected")
	}
	p, _, ok := r.Peek()
	if !ok || len(p) != 8 {
		t.Fatalf("peek after oversize reject: ok=%v len=%d", ok, len(p))
	}
}

func TestRingPeekAliasesUntilAdvance(t *testing.T) {
	r := NewRing(2, 16)
	if !r.Push([]byte("first"), 1) {
		t.Fatal("push failed")
	}
	p1, _, _ := r.Peek()
	// Peek is idempotent until Advance.
	p2, ns, ok := r.Peek()
	if !ok || !bytes.Equal(p1, p2) || ns != 1 {
		t.Fatalf("second peek diverged: %q vs %q", p1, p2)
	}
	r.Advance()
	if _, _, ok := r.Peek(); ok {
		t.Fatal("ring should be empty after advance")
	}
}

// TestRingConsumeStrandsNothingAtClose races a producer's last push against
// its closed store, many times over: the consumer often finds the ring
// empty just before that push lands and then sees closed set. Every pushed
// frame must still be consumed, in order (run under -race by the race gate).
func TestRingConsumeStrandsNothingAtClose(t *testing.T) {
	for round := 0; round < 10000; round++ {
		r := NewRing(4, 8)
		var closed atomic.Bool
		consumed := 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.Consume(&closed, func(p []byte, ns int64) {
				if int(ns) != consumed || p[0] != byte(consumed) {
					t.Errorf("round %d: frame %d arrived as (%v, %d)", round, consumed, p, ns)
				}
				consumed++
			})
		}()
		pushed := round%7 + 1
		for i := 0; i < pushed; i++ {
			if i == pushed-1 {
				runtime.Gosched() // let the consumer catch up and find the ring empty
			}
			for !r.Push([]byte{byte(i)}, int64(i)) {
				runtime.Gosched()
			}
		}
		closed.Store(true)
		<-done
		if consumed != pushed {
			t.Fatalf("round %d: consumed %d of %d pushed frames", round, consumed, pushed)
		}
	}
}
