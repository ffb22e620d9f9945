package cpu

import "drstrange/internal/memctrl"

// Snapshot support. A core's window holds pointers to request handles
// that are shared with the memory controller's queues (until they
// complete) and with the system's injection port, so cloning a core
// rewrites those pointers through the caller's old->new remap: a handle
// already cloned elsewhere maps to the same copy; a handle only the
// window still references (completed, awaiting retirement) is cloned
// here and registered for any later holder.

// TraceCloner is the optional interface a Trace implements to support
// core cloning: CloneTrace returns an independent trace at the same
// stream position, emitting the identical future op sequence.
type TraceCloner interface{ CloneTrace() Trace }

// Clone returns an independent deep copy of the core, connected to mem
// (the cloned controller) with every window request rewritten through
// remap. It panics if the core's trace does not implement TraceCloner.
func (c *Core) Clone(mem MemPort, remap map[*memctrl.Request]*memctrl.Request) *Core {
	tc, ok := c.trace.(TraceCloner)
	if !ok {
		panic("cpu: trace does not support cloning")
	}
	cp := *c
	cp.trace = tc.CloneTrace()
	cp.mem = mem
	for j := 0; j < c.nEntries; j++ {
		i := (c.head + j) & (WindowSize - 1)
		r := c.win[i].req
		if r == nil {
			continue
		}
		n, ok := remap[r]
		if !ok {
			n = new(memctrl.Request)
			*n = *r
			remap[r] = n
		}
		cp.win[i].req = n
	}
	return &cp
}
