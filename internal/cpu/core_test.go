package cpu

import (
	"testing"

	"drstrange/internal/memctrl"
)

// fakeMem is a controllable MemPort for unit-testing the core alone.
type fakeMem struct {
	latency   int64
	now       int64
	inflight  []*memctrl.Request
	full      bool
	reads     int
	writes    int
	rands     int
	recycled  int
	writeFull bool
}

func (f *fakeMem) SubmitRead(line uint64, core int, now int64) (*memctrl.Request, bool) {
	if f.full {
		return nil, false
	}
	f.reads++
	r := &memctrl.Request{Kind: memctrl.KindRead, Line: line, Core: core, Arrive: now, Finish: now + f.latency}
	f.inflight = append(f.inflight, r)
	return r, true
}

func (f *fakeMem) SubmitWrite(line uint64, core int, now int64) bool {
	if f.writeFull {
		return false
	}
	f.writes++
	return true
}

func (f *fakeMem) SubmitRNG(core int, now int64) (*memctrl.Request, bool) {
	if f.full {
		return nil, false
	}
	f.rands++
	r := &memctrl.Request{Kind: memctrl.KindRNG, Core: core, Arrive: now, Finish: now + f.latency}
	f.inflight = append(f.inflight, r)
	return r, true
}

func (f *fakeMem) Recycle(r *memctrl.Request) { f.recycled++ }

func (f *fakeMem) tick(now int64) {
	f.now = now
	for _, r := range f.inflight {
		if !r.Done && r.Finish <= now {
			r.Done = true
		}
	}
}

// listTrace replays a fixed op list, then pure compute forever.
type listTrace struct {
	ops []Op
	i   int
}

func (t *listTrace) NextOp() Op {
	if t.i < len(t.ops) {
		op := t.ops[t.i]
		t.i++
		return op
	}
	return Op{NonMem: 100, Kind: OpCompute}
}

func run(c *Core, mem *fakeMem, ticks int64) {
	for now := int64(0); now < ticks; now++ {
		mem.tick(now)
		c.Tick(now)
	}
}

func TestComputeOnlyRetiresAtFullWidth(t *testing.T) {
	mem := &fakeMem{}
	c := NewCore(0, &listTrace{}, mem, 600)
	run(c, mem, 32)
	st := c.Stats()
	if !st.Finished {
		t.Fatalf("600 compute instructions not finished in 32 ticks: retired=%d", st.Retired)
	}
	// 60 instructions per tick; the window pipeline adds 1 tick.
	if st.FinishTick > 12 {
		t.Fatalf("compute-only finish tick %d, want ~10", st.FinishTick)
	}
	if st.MPKI() != 0 {
		t.Fatal("compute-only trace has nonzero MPKI")
	}
}

func TestLoadBlocksRetirementUntilDone(t *testing.T) {
	mem := &fakeMem{latency: 50}
	tr := &listTrace{ops: []Op{{NonMem: 0, Kind: OpLoad, Line: 1}}}
	c := NewCore(0, tr, mem, 200)
	run(c, mem, 200)
	st := c.Stats()
	if !st.Finished {
		t.Fatalf("not finished: retired=%d", st.Retired)
	}
	if st.Loads != 1 {
		t.Fatalf("loads = %d", st.Loads)
	}
	if st.StallMemTicks < 40 {
		t.Fatalf("stall ticks = %d, want ~50", st.StallMemTicks)
	}
	if st.StallRNGTicks != 0 {
		t.Fatal("load stall misclassified as RNG stall")
	}
}

func TestRNGStallClassified(t *testing.T) {
	mem := &fakeMem{latency: 30}
	tr := &listTrace{ops: []Op{{NonMem: 0, Kind: OpRand}}}
	c := NewCore(0, tr, mem, 100)
	run(c, mem, 100)
	st := c.Stats()
	if st.Rands != 1 {
		t.Fatalf("rands = %d", st.Rands)
	}
	if st.StallRNGTicks < 20 {
		t.Fatalf("rng stall = %d, want ~30", st.StallRNGTicks)
	}
	if st.StallMemTicks != 0 {
		t.Fatal("rng stall misclassified as load stall")
	}
}

func TestStoresArePosted(t *testing.T) {
	mem := &fakeMem{latency: 1000}
	tr := &listTrace{ops: []Op{{NonMem: 0, Kind: OpStore, Line: 3}, {NonMem: 10, Kind: OpCompute}}}
	c := NewCore(0, tr, mem, 50)
	run(c, mem, 10)
	st := c.Stats()
	if !st.Finished {
		t.Fatalf("store blocked retirement: retired=%d", st.Retired)
	}
	if st.Stores != 1 {
		t.Fatalf("stores = %d", st.Stores)
	}
	if mem.writes != 1 {
		t.Fatalf("writes submitted = %d", mem.writes)
	}
}

func TestWindowLimitsOutstandingRunahead(t *testing.T) {
	// One blocking load followed by lots of compute: the core can run
	// ahead at most window-1 instructions past the blocked head.
	mem := &fakeMem{latency: 1 << 30}
	ops := []Op{{NonMem: 0, Kind: OpLoad, Line: 1}}
	tr := &listTrace{ops: ops}
	c := NewCore(0, tr, mem, 1000)
	run(c, mem, 50)
	if got := c.Stats().Retired; got != 0 {
		t.Fatalf("retired %d past a permanently blocked head", got)
	}
	if c.size != WindowSize {
		t.Fatalf("window not full while blocked: size=%d", c.size)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	mem := &fakeMem{latency: 1, full: true}
	tr := &listTrace{ops: []Op{{NonMem: 0, Kind: OpLoad, Line: 1}}}
	c := NewCore(0, tr, mem, 100)
	run(c, mem, 5)
	if mem.reads != 0 {
		t.Fatal("read submitted despite full queue")
	}
	mem.full = false
	run2 := func(from, to int64) {
		for now := from; now < to; now++ {
			mem.tick(now)
			c.Tick(now)
		}
	}
	run2(5, 20)
	if mem.reads != 1 {
		t.Fatalf("read not retried after queue freed: %d", mem.reads)
	}
}

func TestWriteQueueBackpressureStallsDispatch(t *testing.T) {
	mem := &fakeMem{writeFull: true}
	tr := &listTrace{ops: []Op{{NonMem: 0, Kind: OpStore, Line: 1}, {NonMem: 5, Kind: OpCompute}}}
	c := NewCore(0, tr, mem, 100)
	run(c, mem, 3)
	if mem.writes != 0 {
		t.Fatal("write submitted despite full queue")
	}
	// In-order dispatch: the compute after the store must not retire
	// yet (it was never dispatched).
	if c.Stats().Retired > 0 {
		t.Fatalf("retired %d instructions past a stalled store", c.Stats().Retired)
	}
}

func TestStatsFreezeAtTarget(t *testing.T) {
	mem := &fakeMem{latency: 2}
	tr := &listTrace{ops: []Op{
		{NonMem: 50, Kind: OpLoad, Line: 1},
		{NonMem: 50, Kind: OpLoad, Line: 2},
	}}
	c := NewCore(0, tr, mem, 60)
	run(c, mem, 500)
	st := c.Stats()
	if !st.Finished {
		t.Fatal("not finished")
	}
	frozen := st.Retired
	// Keep running; stats must not move.
	run(c, mem, 100)
	if c.Stats().Retired != frozen {
		t.Fatal("stats advanced after target")
	}
}

func TestMPKIAndMCPI(t *testing.T) {
	st := Stats{Retired: 2000, Loads: 10, Stores: 10, StallMemTicks: 100, StallRNGTicks: 50}
	if st.MPKI() != 10 {
		t.Fatalf("MPKI = %v", st.MPKI())
	}
	if st.MCPI() != 0.075 {
		t.Fatalf("MCPI = %v", st.MCPI())
	}
	var zero Stats
	if zero.MPKI() != 0 || zero.MCPI() != 0 {
		t.Fatal("zero stats should yield zero rates")
	}
}

func TestNewCorePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero instruction target: no panic")
		}
	}()
	NewCore(0, &listTrace{}, &fakeMem{}, 0)
}

func TestMemoryIntensityDrivesFinishTime(t *testing.T) {
	// Same instruction count; the trace with more loads must take
	// longer under the same memory latency.
	mk := func(gap int) *listTrace {
		var ops []Op
		for i := 0; i < 200; i++ {
			ops = append(ops, Op{NonMem: gap, Kind: OpLoad, Line: uint64(i)})
		}
		return &listTrace{ops: ops}
	}
	run1 := func(gap int) int64 {
		mem := &fakeMem{latency: 20}
		c := NewCore(0, mk(gap), mem, 5000)
		run(c, mem, 100000)
		if !c.Finished() {
			t.Fatalf("gap %d never finished", gap)
		}
		return c.Stats().FinishTick
	}
	sparse, dense := run1(200), run1(20)
	if dense <= sparse {
		t.Fatalf("memory-dense trace finished faster: dense=%d sparse=%d", dense, sparse)
	}
}

// benchMem is a fixed-latency MemPort that reuses request handles: each
// submit takes one from a free list and completes it latency ticks
// later, and Recycle returns it, so the steady state allocates nothing.
type benchMem struct {
	latency  int64
	free     []*memctrl.Request
	inflight []*memctrl.Request
}

func (m *benchMem) take(kind memctrl.Kind, now int64) *memctrl.Request {
	var r *memctrl.Request
	if n := len(m.free); n > 0 {
		r, m.free = m.free[n-1], m.free[:n-1]
		*r = memctrl.Request{}
	} else {
		r = new(memctrl.Request)
	}
	r.Kind, r.Finish = kind, now+m.latency
	m.inflight = append(m.inflight, r)
	return r
}

func (m *benchMem) SubmitRead(_ uint64, _ int, now int64) (*memctrl.Request, bool) {
	return m.take(memctrl.KindRead, now), true
}
func (m *benchMem) SubmitWrite(uint64, int, int64) bool { return true }
func (m *benchMem) SubmitRNG(_ int, now int64) (*memctrl.Request, bool) {
	return m.take(memctrl.KindRNG, now), true
}
func (m *benchMem) Recycle(r *memctrl.Request) { m.free = append(m.free, r) }

// tick completes every request whose finish tick has come.
func (m *benchMem) tick(now int64) {
	live := m.inflight[:0]
	for _, r := range m.inflight {
		if r.Finish <= now {
			r.Done = true
		} else {
			live = append(live, r)
		}
	}
	m.inflight = live
}

// cycleTrace repeats a fixed op list forever.
type cycleTrace struct {
	ops []Op
	i   int
}

func (t *cycleTrace) NextOp() Op {
	op := t.ops[t.i]
	t.i = (t.i + 1) % len(t.ops)
	return op
}

// BenchmarkCoreTick times one Core.Tick of a memory-bound core: loads
// every 20 instructions, a store every 80, against a 40-tick memory, so
// ticks alternate between stalls on the window head and bursts of
// retirement and dispatch.
func BenchmarkCoreTick(b *testing.B) {
	mem := &benchMem{latency: 40}
	tr := &cycleTrace{ops: []Op{
		{NonMem: 20, Kind: OpLoad, Line: 1},
		{NonMem: 20, Kind: OpLoad, Line: 2},
		{NonMem: 20, Kind: OpStore, Line: 3},
		{NonMem: 20, Kind: OpLoad, Line: 4},
	}}
	c := NewCore(0, tr, mem, 1<<62)
	now := int64(0)
	for ; now < 1000; now++ {
		mem.tick(now)
		c.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := now + int64(b.N); now < end; now++ {
		mem.tick(now)
		c.Tick(now)
	}
	if c.Stats().Retired == 0 || c.Stats().StallMemTicks == 0 {
		b.Fatalf("core never retired or never stalled: %+v", c.Stats())
	}
}
