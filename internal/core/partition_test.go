package core

import (
	"testing"

	"drstrange/internal/memctrl"
)

var _ memctrl.PartitionedBuffer = (*PartitionedBuffer)(nil)

func TestPartitionedBufferIsolation(t *testing.T) {
	p := NewPartitionedBuffer(16, 2)
	// Fill everything.
	for !p.Full() {
		p.AddBits(64)
	}
	if p.Words() != 16 {
		t.Fatalf("words = %d, want 16", p.Words())
	}
	// Core 0 drains its partition completely.
	drained := 0
	for p.TakeWordFor(0) {
		drained++
	}
	if drained != 8 {
		t.Fatalf("core 0 drained %d words, want its 8-word partition", drained)
	}
	// Core 1's partition is untouched: the isolation property that
	// closes the Section 6 timing channel.
	if p.parts[1].Words() != 8 {
		t.Fatalf("core 1 partition = %d words, want 8", p.parts[1].Words())
	}
	if !p.TakeWordFor(1) {
		t.Fatal("core 1 starved by core 0's drain")
	}
}

func TestPartitionedBufferRoundRobinFill(t *testing.T) {
	p := NewPartitionedBuffer(8, 4)
	for i := 0; i < 4; i++ {
		p.AddBits(64)
	}
	for c := 0; c < 4; c++ {
		if p.parts[c].Words() != 1 {
			t.Fatalf("partition %d got %d words; fill not rotating", c, p.parts[c].Words())
		}
	}
}

func TestPartitionedBufferSkipsFullPartitions(t *testing.T) {
	p := NewPartitionedBuffer(4, 2) // 2 words per partition
	// Fill partition 0 completely (deposits alternate, so drain 1).
	for i := 0; i < 8; i++ {
		p.AddBits(64)
	}
	for p.TakeWordFor(1) {
	}
	// New bits must land in the non-full partition 1.
	p.AddBits(64)
	if p.parts[1].Words() != 1 {
		t.Fatal("deposit did not skip the full partition")
	}
}

// TestPartitionedBufferTakeWordDefaultsToPartitionZero: without a core
// identity, TakeWord serves partition 0 first.
func TestPartitionedBufferTakeWordDefaultsToPartitionZero(t *testing.T) {
	p := NewPartitionedBuffer(4, 2)
	p.AddBits(64) // lands in partition 0 (cursor starts there)
	if !p.TakeWord() {
		t.Fatal("TakeWord did not serve partition 0")
	}
}

func TestPartitionedBufferMinimumOneWordEach(t *testing.T) {
	p := NewPartitionedBuffer(1, 4) // fewer words than apps
	for c := 0; c < 4; c++ {
		p.AddBits(64)
	}
	for c := 0; c < 4; c++ {
		if !p.TakeWordFor(c) {
			t.Fatalf("core %d has no reserve", c)
		}
	}
}

func TestPartitionedBufferPanicsOnZeroApps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewPartitionedBuffer(16, 0)
}

// TestPartitionedBufferTakeWordDrainsEveryPartition: TakeWord serves
// whole words from any partition, so draining it empties them all, and
// keeps each partition's fractional remainder.
func TestPartitionedBufferTakeWordDrainsEveryPartition(t *testing.T) {
	p := NewPartitionedBuffer(4, 2)
	p.AddBits(64) // partition 0
	p.AddBits(64) // partition 1
	p.AddBits(32) // partition 0: a fractional remainder
	for i := 0; i < 2; i++ {
		if !p.TakeWord() {
			t.Fatalf("TakeWord %d found no word", i)
		}
	}
	if p.TakeWord() || p.Words() != 0 {
		t.Fatalf("buffer still serves after both words: %d words", p.Words())
	}
	p.AddBits(32) // partition 1
	p.AddBits(32) // partition 0: completes the word its remainder began
	if p.parts[0].Words() != 1 || p.parts[1].Words() != 0 {
		t.Fatal("draining whole words discarded a fractional remainder")
	}
}
