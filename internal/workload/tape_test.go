package workload

import (
	"sync"
	"testing"

	"drstrange/internal/cpu"
	"drstrange/internal/dram"
)

// liveOps returns the first n ops of the profile's live generator.
func liveOps(p Profile, geom dram.Geometry, rowBase int, seed uint64, n int) []cpu.Op {
	tr := p.NewTrace(geom, rowBase, seed)
	out := make([]cpu.Op, n)
	for i := range out {
		out[i] = tr.NextOp()
	}
	return out
}

// TestTapeMatchesNewTrace pins the tape's one promise: for every
// profile in the suite, a reader replays exactly the op stream a fresh
// NewTrace generates, into a third block.
func TestTapeMatchesNewTrace(t *testing.T) {
	geom := dram.DefaultGeometry()
	const n = 2*tapeBlockOps + 1
	for i, p := range Profiles() {
		rowBase, seed := 1000+i*4096, uint64(i)*7919+3
		want := liveOps(p, geom, rowBase, seed, n)
		r := p.NewTape(geom, rowBase, seed).Reader()
		for j, w := range want {
			if got := r.NextOp(); got != w {
				t.Fatalf("%s: op %d = %+v, want %+v", p.Name, j, got, w)
			}
		}
	}
}

// TestTapeReadersInterleaved advances two readers of one tape in
// uneven, interleaved steps — each in turn recording past the other's
// position and then replaying what the other recorded — and takes a
// CloneTrace of one of them mid-stream. All three must continue the
// live stream exactly.
func TestTapeReadersInterleaved(t *testing.T) {
	p, geom := MustByName("mcf"), dram.DefaultGeometry()
	const n = 20 * tapeBlockOps
	want := liveOps(p, geom, 1000, 42, n)
	tape := p.NewTape(geom, 1000, 42)
	a, b := tape.Reader(), tape.Reader()
	var clone cpu.Trace
	pa, pb, pc := 0, 0, 0
	check := func(name string, tr cpu.Trace, pos *int, steps int) {
		t.Helper()
		for ; steps > 0 && *pos < n; steps-- {
			if got := tr.NextOp(); got != want[*pos] {
				t.Fatalf("reader %s: op %d = %+v, want %+v", name, *pos, got, want[*pos])
			}
			*pos++
		}
	}
	for round := 0; pa < n || pb < n || pc < n; round++ {
		check("a", a, &pa, 1+(round*37)%150)
		check("b", b, &pb, 1+(round*91)%97)
		if clone == nil && pb > n/3 {
			clone, pc = b.(cpu.TraceCloner).CloneTrace(), pb
		}
		if clone != nil {
			check("clone", clone, &pc, 1+(round*13)%211)
		}
	}
}

// TestTapeConcurrentReaders has several goroutines read and extend one
// tape at once, some through mid-stream clones, each at its own pace.
// Every reader must see the live stream; run under -race it also checks
// that readers behind the recording frontier need no lock.
func TestTapeConcurrentReaders(t *testing.T) {
	p, geom := MustByName("libq"), dram.DefaultGeometry()
	const n = 40 * tapeBlockOps
	want := liveOps(p, geom, 5096, 7, n)
	tape := p.NewTape(geom, 5096, 7)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := tape.Reader()
			for i := 0; i < n; i++ {
				if g%2 == 1 && i == g*97 {
					tr = tr.(cpu.TraceCloner).CloneTrace()
				}
				if got := tr.NextOp(); got != want[i] {
					errs <- "op mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
