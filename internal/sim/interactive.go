package sim

import (
	"drstrange/internal/memctrl"
	"drstrange/internal/trng"
	"drstrange/internal/workload"
)

// wordPort drives a System one blocking request at a time: each
// request is one word injected at the current tick and stepped until it
// completes. Interactive is a one-client wordPort; the Section 6 probe
// experiments drive a two-client one.
type wordPort struct {
	sys       *System
	done, hit bool // the outstanding word completed / was a buffer hit
}

func newWordPort(cfg RunConfig) *wordPort {
	p := &wordPort{sys: NewSystem(cfg)}
	p.sys.OnInjectionComplete(func(ir *InjectedRequest) { p.done, p.hit = true, ir.BufferWords > 0 })
	return p
}

// idle advances the system n ticks without requesting anything.
func (p *wordPort) idle(n int64) { p.sys.StepTo(p.sys.Now() + n - 1) }

// request requests one word for client and steps until it completes,
// reporting whether the buffer served it.
func (p *wordPort) request(client int) bool {
	p.done = false
	p.sys.InjectRNG(client, p.sys.Now(), 1)
	for !p.done {
		p.sys.Step()
	}
	return p.hit
}

// Interactive is a live simulated system for the application-interface
// examples: callers request true random words one at a time and
// observe real service latencies (buffer hit or DRAM generation) while
// optional background applications keep the memory system busy. It
// implements core.WordRequester, so core.NewSyscall(Interactive) is the
// full getrandom() path of Section 5.3.
//
// An Interactive system steps one shared simulated clock and is NOT
// safe for concurrent use; unlike the batch experiment engine
// (pool.go) it never fans out. Use one instance per goroutine.
type Interactive struct {
	port *wordPort
	gen  *trng.Generator
}

// NewInteractive builds an interactive system under the given design
// with the named background applications (may be empty), stepped by
// DefaultEngine. Background application i runs the trace seeded
// seed + i*7919 (the System's rule) with a 2^40-instruction budget, so
// it never finishes. The entropy backend is a D-RaNGe generator over a
// simulated cell array.
func NewInteractive(design Design, background []string, seed uint64) *Interactive {
	return &Interactive{
		port: newWordPort(RunConfig{
			Design:       design,
			Mix:          workload.Mix{Apps: background},
			Clients:      1,
			Seed:         seed,
			Instructions: serveTarget,
		}),
		gen: trng.NewDRaNGeGenerator(trng.NewCellArray(1<<16, seed), 0.05),
	}
}

// Now returns the current simulated tick.
func (s *Interactive) Now() int64 { return s.port.sys.Now() }

// Stats exposes the controller counters.
func (s *Interactive) Stats() memctrl.Stats { return s.port.sys.Controller().Stats() }

// Idle advances the system n ticks without requesting anything (lets
// the buffer fill during idle periods).
func (s *Interactive) Idle(n int64) { s.port.idle(n) }

// RequestWord implements core.WordRequester: submit one 64-bit RNG
// request and run the system until it completes.
func (s *Interactive) RequestWord() (uint64, int64) {
	start := s.Now()
	s.port.request(0)
	return s.gen.Word64(), s.Now() - start
}
