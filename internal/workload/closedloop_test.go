package workload

import (
	"math"
	"testing"
)

// TestRetryBackoffReplay pins the retry-backoff schedule to literal
// values: the delays are a pure function of (seed, client, attempt), so
// any change to the hash, the base delay, or the cap shows up here
// before it silently rewrites the closed-loop serve goldens.
func TestRetryBackoffReplay(t *testing.T) {
	want := map[int][]int64{
		0: {305, 903, 1574, 2734, 6658, 14020, 31068, 16522, 16600, 27565},
		3: {275, 719, 1780, 3855, 8110, 16067, 31577, 16527, 18882, 19922},
	}
	for client, delays := range want {
		for i, d := range delays {
			if got := RetryBackoff(7, client, i+1); got != d {
				t.Errorf("RetryBackoff(7, %d, %d) = %d, want %d", client, i+1, got, d)
			}
		}
	}
	// Replay: the same arguments always return the same delay.
	for a := 1; a <= 12; a++ {
		if RetryBackoff(42, 5, a) != RetryBackoff(42, 5, a) {
			t.Fatalf("attempt %d: backoff is not a pure function", a)
		}
	}
}

// TestRetryBackoffCapped checks the exponential growth and its cap:
// attempt a draws from [base, 2*base) with base = min(256<<(a-1), 16384),
// so deep retry chains stop growing instead of overflowing the window.
func TestRetryBackoffCapped(t *testing.T) {
	for client := 0; client < 32; client++ {
		for a := 1; a <= 20; a++ {
			base := int64(16384)
			if a < 8 {
				base = 256 << (a - 1)
			}
			d := RetryBackoff(9, client, a)
			if d < base || d >= 2*base {
				t.Fatalf("client %d attempt %d: backoff %d outside [%d, %d)", client, a, d, base, 2*base)
			}
		}
	}
	// Attempt numbers below 1 clamp to the first-retry band instead of
	// shifting by a negative amount.
	if d := RetryBackoff(9, 0, 0); d < 256 || d >= 512 {
		t.Fatalf("clamped attempt: backoff %d outside [256, 512)", d)
	}
}

// TestClosedLoopScheduleDeterministic replays one population twice
// through an identical success/failure history and requires the two
// pop sequences to be identical — the property the cross-engine serve
// goldens rest on.
func TestClosedLoopScheduleDeterministic(t *testing.T) {
	run := func() []int64 {
		c := NewClosedLoop(8, 500, 11)
		var trace []int64
		now := int64(0)
		for i := 0; i < 400; i++ {
			next := c.NextReady()
			if next == math.MaxInt64 {
				t.Fatal("population drained: every client in flight with no completions pending")
			}
			if next > now {
				now = next
			}
			client, attempt, ok := c.PopReady(now)
			if !ok {
				t.Fatalf("step %d: NextReady says %d but PopReady refused at %d", i, next, now)
			}
			trace = append(trace, now, int64(client), int64(attempt))
			finish := now + int64(10+client)
			// A deterministic mixed history: every 5th submission of
			// client 2 fails; everything else succeeds.
			if client == 2 && i%5 == 0 {
				c.OnFailure(client, finish)
			} else {
				c.OnSuccess(client, finish)
			}
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at element %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestClosedLoopInvariants covers the bookkeeping edges: initial
// stagger inside [0, think), ties popping in client order, attempt
// counts rising through failures and resetting on success, and the
// think-gap cap.
func TestClosedLoopInvariants(t *testing.T) {
	c := NewClosedLoop(4, 1000, 7)
	if c.Len() != 4 {
		t.Fatalf("initial pending wake-ups = %d, want 4", c.Len())
	}
	if c.NextReady() < 0 || c.NextReady() >= 1000 {
		t.Fatalf("first wake-up %d outside the initial stagger [0, 1000)", c.NextReady())
	}
	prev := int64(-1)
	prevClient := -1
	for i := 0; i < 4; i++ {
		at := c.NextReady()
		client, attempt, ok := c.PopReady(math.MaxInt64)
		if !ok || attempt != 0 {
			t.Fatalf("initial pop %d: ok=%v attempt=%d", i, ok, attempt)
		}
		if at < prev || (at == prev && client <= prevClient) {
			t.Fatalf("pop order not (tick, client)-sorted: (%d,%d) after (%d,%d)", at, client, prev, prevClient)
		}
		prev, prevClient = at, client
	}
	if _, _, ok := c.PopReady(math.MaxInt64); ok {
		t.Fatal("popped a client from an empty heap")
	}
	if c.NextReady() != math.MaxInt64 {
		t.Fatalf("empty heap NextReady = %d, want MaxInt64", c.NextReady())
	}

	// Failures escalate the attempt the next pop reports; success resets.
	c.OnFailure(1, 100)
	c.OnFailure(1, 200)
	if client, attempt, ok := c.PopReady(math.MaxInt64); !ok || client != 1 || attempt != 2 {
		t.Fatalf("after two failures: client=%d attempt=%d ok=%v, want 1/2/true", client, attempt, ok)
	}
	c.OnSuccess(1, 300)
	if client, attempt, ok := c.PopReady(math.MaxInt64); !ok || client != 1 || attempt != 0 {
		t.Fatalf("after success: client=%d attempt=%d ok=%v, want 1/0/true", client, attempt, ok)
	}
}

// TestClosedLoopThinkGapCap bounds the think draws directly: every gap
// scheduled by OnSuccess lands in (finish, finish+16*think].
func TestClosedLoopThinkGapCap(t *testing.T) {
	const think = 250
	c := NewClosedLoop(1, think, 13)
	c.PopReady(math.MaxInt64)
	finish := int64(0)
	for n := 0; n < 4096; n++ {
		c.OnSuccess(0, finish)
		at := c.NextReady()
		if at <= finish || at > finish+16*think {
			t.Fatalf("draw %d: wake-up %d outside (finish, finish+16*think] with finish=%d", n, at, finish)
		}
		c.PopReady(math.MaxInt64)
		finish = at
	}
}
