package workload

import (
	"sync"

	"drstrange/internal/cpu"
	"drstrange/internal/dram"
)

// tapeBlockOps is the number of ops in one tape block (1.5 KiB). Ops
// live in fixed-size blocks rather than one slice grown by append, so
// recording never copies what is already recorded and a tape's slack
// is at most one partly filled block.
const tapeBlockOps = 64

type tapeBlock [tapeBlockOps]cpu.Op

// Tape is an append-only recording of one application trace's op
// stream. The trace is a pure function of (profile, geometry, row
// base, seed), so every system that replays the same stream can share
// one tape: the first reader to reach an op records it from the
// generator, and every later reader copies it instead of redrawing it.
//
// Recording is lazy, one op per request at the recording frontier:
// short runs read only the first few ops of a stream, and reading
// ahead would generate ops no one replays.
//
// A Tape is safe for concurrent use; each reader is not. Readers take
// the tape's lock only when they reach the last op they know is
// recorded. A recorded op is never written again, so a reader reads
// everything before that point without locking.
type Tape struct {
	mu     sync.Mutex
	gen    *appTrace    // emits op n next
	blocks []*tapeBlock // ops [0, n), block by block
	n      int          // ops recorded
}

// NewTape returns an empty tape of the trace NewTrace(geom, rowBase,
// seed) generates.
func (p Profile) NewTape(geom dram.Geometry, rowBase int, seed uint64) *Tape {
	return &Tape{gen: p.newAppTrace(geom, rowBase, seed)}
}

// Reader returns a trace that replays the tape from its first op,
// recording ops as it passes the end of the recording: its op stream
// is exactly NewTrace's.
func (t *Tape) Reader() cpu.Trace { return &tapeReader{tape: t} }

// record appends the generator's next op. The caller holds t.mu.
func (t *Tape) record() {
	i := t.n % tapeBlockOps
	if i == 0 {
		t.blocks = append(t.blocks, new(tapeBlock))
	}
	t.blocks[len(t.blocks)-1][i] = t.gen.NextOp()
	t.n++
}

// tapeReader replays a Tape. blocks and limit are the reader's view of
// the tape as of its last sync: ops [0, limit) are recorded, and
// blocks holds every block they occupy.
type tapeReader struct {
	tape   *Tape
	blocks []*tapeBlock
	pos    int // next op to return
	limit  int
}

// NextOp implements cpu.Trace.
func (r *tapeReader) NextOp() cpu.Op {
	if r.pos == r.limit {
		r.sync()
	}
	op := r.blocks[r.pos/tapeBlockOps][r.pos%tapeBlockOps]
	r.pos++
	return op
}

// sync refreshes the reader's view under the tape's lock, recording
// the op at pos first if no reader has yet.
func (r *tapeReader) sync() {
	t := r.tape
	t.mu.Lock()
	if r.pos == t.n {
		t.record()
	}
	r.blocks, r.limit = t.blocks, t.n
	t.mu.Unlock()
}

// CloneTrace implements cpu.TraceCloner: the copy shares the tape and
// continues from the same position.
func (r *tapeReader) CloneTrace() cpu.Trace {
	cp := *r
	return &cp
}
