package sim

// The event engine's next-event index. Each shard caches a lower bound
// on its next state change (componentBound), recomputed right after the
// shard executes; the next event is the minimum over those bounds,
// clamped by the next scheduled arrival. A linear min-over-shards scan
// would cost O(N) per event and defeat tick skipping once hundred-shard
// configs are in play, so the bounds are indexed in a binary min-heap
// holding exactly one entry per shard. The heap also records every
// shard's position, so a changed bound is sifted in place (fix,
// O(log n)).
//
// The ticked engine (engine.go) is the reference oracle for this index:
// it never consults a bound, so any bound that overshot a state change
// would show up as an engine differential.

// heapSlot is one element of boundHeap's single backing slice. Slot i
// carries two unrelated facts: the heap entry at position i (tick,
// shard), and the position of shard i in the heap (pos). Packing both
// into one slice keeps the index to one allocation per System.
type heapSlot struct {
	tick  int64 // bound of the entry at heap position i
	shard int32 // shard of the entry at heap position i
	pos   int32 // heap position of shard i
}

// boundHeap is a position-indexed binary min-heap of per-shard bounds,
// ordered by tick with ties broken by shard index (determinism never
// depends on the tie-break — equal-tick shards all execute at that tick
// — but a total order keeps the structure canonical).
type boundHeap struct {
	s []heapSlot
}

// init resets the heap to n shards, every bound at tick 0 like a fresh
// shard's (already a valid heap, with shard k at position k).
func (h *boundHeap) init(n int) {
	h.s = make([]heapSlot, n)
	for k := range h.s {
		h.s[k] = heapSlot{shard: int32(k), pos: int32(k)}
	}
}

// min returns the smallest bound.
func (h *boundHeap) min() int64 { return h.s[0].tick }

func (h *boundHeap) less(i, j int) bool {
	a, b := &h.s[i], &h.s[j]
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	return a.shard < b.shard
}

// swap exchanges the entries at heap positions i and j and updates the
// two shards' positions.
func (h *boundHeap) swap(i, j int) {
	h.s[i].tick, h.s[j].tick = h.s[j].tick, h.s[i].tick
	h.s[i].shard, h.s[j].shard = h.s[j].shard, h.s[i].shard
	h.s[h.s[i].shard].pos = int32(i)
	h.s[h.s[j].shard].pos = int32(j)
}

// fix sets shard's bound to tick and restores the heap order. It is
// small enough to inline, so a one-shard System pays no call for it.
//
//drstrange:noalloc
func (h *boundHeap) fix(shard int, tick int64) {
	if len(h.s) == 1 {
		h.s[0].tick = tick
		return
	}
	h.sift(int(h.s[shard].pos), tick)
}

// sift sets the bound at heap position i to tick and moves the entry up
// or down to its place.
//
//drstrange:noalloc
func (h *boundHeap) sift(i int, tick int64) {
	h.s[i].tick = tick
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
	n := len(h.s)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.less(l, min) {
			min = l
		}
		if r < n && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h.swap(i, min)
		i = min
	}
}
