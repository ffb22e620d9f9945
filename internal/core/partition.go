package core

// PartitionedBuffer is the Section 6 countermeasure against using the
// random number buffer as a timing side/covert channel: the buffer is
// statically partitioned across applications, so one application's
// draining cannot be observed through another's service latency. The
// paper proposes this (at a small performance cost) alongside
// access-privilege restriction.
type PartitionedBuffer struct {
	parts []*RandBuffer
	next  int // round-robin fill cursor
}

// NewPartitionedBuffer splits words of capacity evenly across nApps
// partitions (each partition gets at least one word).
func NewPartitionedBuffer(words, nApps int) *PartitionedBuffer {
	if nApps <= 0 {
		panic("core: PartitionedBuffer needs at least one app")
	}
	per := words / nApps
	if per < 1 {
		per = 1
	}
	p := &PartitionedBuffer{}
	for i := 0; i < nApps; i++ {
		p.parts = append(p.parts, NewRandBuffer(per))
	}
	return p
}

// TakeWordFor serves core's partition only.
func (p *PartitionedBuffer) TakeWordFor(core int) bool {
	return p.parts[core%len(p.parts)].TakeWord()
}

// TakeWord implements memctrl.Buffer; without a core identity it
// serves the first partition holding a word (the controller serves
// requests through TakeWordFor). Repeated calls therefore drain every
// partition, which is how the controller purges the buffer on an
// entropy health trip.
func (p *PartitionedBuffer) TakeWord() bool {
	for _, part := range p.parts {
		if part.TakeWord() {
			return true
		}
	}
	return false
}

// AddBits implements memctrl.Buffer: deposits rotate across the
// non-full partitions so every application's reserve fills.
func (p *PartitionedBuffer) AddBits(bits float64) {
	for range p.parts {
		part := p.parts[p.next]
		p.next = (p.next + 1) % len(p.parts)
		if !part.Full() {
			part.AddBits(bits)
			return
		}
	}
	// All full: excess is discarded, as with the shared buffer.
	p.parts[0].AddBits(bits)
}

// Full implements memctrl.Buffer.
func (p *PartitionedBuffer) Full() bool {
	for _, part := range p.parts {
		if !part.Full() {
			return false
		}
	}
	return true
}

// Words implements memctrl.Buffer: total complete words across
// partitions.
func (p *PartitionedBuffer) Words() int {
	n := 0
	for _, part := range p.parts {
		n += part.Words()
	}
	return n
}
