package workload

import (
	"math"
	"reflect"
	"testing"
)

// TestChunkedArrivalsMatchDirectStream is the determinism contract of
// the chunked adapter: consuming a process through Peek/Next/TakeThrough
// in arbitrary slices must yield exactly the arrivals (and underlying
// draws) that calling NextArrival directly would.
func TestChunkedArrivalsMatchDirectStream(t *testing.T) {
	const end = int64(50_000)
	for _, name := range ArrivalNames() {
		direct, err := NewArrivals(name, 0.02, 0.3, 11)
		if err != nil {
			t.Fatal(err)
		}
		var want []int64
		for {
			tick := nextArrival(direct)
			if tick >= end {
				break
			}
			want = append(want, tick)
		}

		src, _ := NewArrivals(name, 0.02, 0.3, 11)
		ch := NewChunked(src)
		var got []int64
		// Uneven slice widths, including empty slices, to exercise the
		// buffering across chunk boundaries.
		for limit := int64(0); ; limit += 777 {
			ch.TakeThrough(limit, end, func(tick int64) { got = append(got, tick) })
			if limit >= end {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: chunked stream yielded %d arrivals, direct %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: arrival %d differs: chunked %d, direct %d", name, i, got[i], want[i])
			}
		}
		// No arrival at or past the stop was consumed: Peek must expose
		// the first of them.
		if p := ch.Peek(math.MaxInt64); p < end {
			t.Fatalf("%s: Peek after exhaustion = %d, want >= %d", name, p, end)
		}
	}
}

// TestChunkedArrivalsPeekIdempotent checks that Peek does not consume.
func TestChunkedArrivalsPeekIdempotent(t *testing.T) {
	src, _ := NewArrivals(ArrivalPoisson, 0.05, 0, 3)
	ch := NewChunked(src)
	a, b := ch.Peek(math.MaxInt64), ch.Peek(math.MaxInt64)
	if a != b {
		t.Fatalf("Peek consumed: %d then %d", a, b)
	}
	if n := ch.Next(); n != a {
		t.Fatalf("Next = %d, want peeked %d", n, a)
	}
}

// TestChunkedArrivalsStopDrawingAtStop: TakeThrough's stop bounds the
// draws of the processes that walk phases (bursty) or rate intervals
// (diurnal) until an arrival lands. At a tiny rate their next arrival
// lies far past a short window; the process must pause at its first
// phase or interval boundary at or past stop instead of walking on to
// that arrival, and a later Peek must resume the exact stream a direct
// draw gives.
func TestChunkedArrivalsStopDrawingAtStop(t *testing.T) {
	const (
		rate = 1e-5
		stop = int64(2_000)
		// A phase dwells 1500 ticks on average and an interval lasts
		// 1250, so a paused clock sits well inside this slack, while the
		// first arrival lies far past it: at tick 159679 (bursty) and
		// 45551 (diurnal) for seed 1.
		slack = int64(20_000)
	)
	clocks := map[string]func(Arrivals) int64{
		ArrivalBursty:  func(a Arrivals) int64 { return a.(*burstyArrivals).now },
		ArrivalDiurnal: func(a Arrivals) int64 { return a.(*rateTraceArrivals).now },
	}
	for name, clock := range clocks {
		src, _ := NewArrivals(name, rate, 0.3, 1)
		ch := NewChunked(src)
		var got []int64
		ch.TakeThrough(stop-1, stop, func(tick int64) { got = append(got, tick) })
		if now := clock(src); now < stop || now >= stop+slack {
			t.Errorf("%s: process clock at %d after TakeThrough(stop=%d), want a pause in [%d, %d)",
				name, now, stop, stop, stop+slack)
		}

		direct, _ := NewArrivals(name, rate, 0.3, 1)
		var want []int64
		for len(want) <= len(got) {
			want = append(want, nextArrival(direct))
		}
		if got = append(got, ch.Peek(math.MaxInt64)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: arrivals %v through the pause, want the direct stream's %v", name, got, want)
		}
	}
}
