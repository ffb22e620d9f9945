package memctrl

import "fmt"

// Snapshot support: Clone deep-copies a controller so the copy can be
// stepped independently while evolving byte-identically to the original
// under the same call sequence. Cloning is structural, not serialized:
// the request handles flowing through the controller's queues are also
// referenced by the cores' instruction windows and by the system's
// injection port, so Clone returns the old->new request remapping and
// the caller rewrites its own references through it.

// stateCloner is the optional interface a configured Buffer or
// IdlePredictor implements to support controller cloning (the concrete
// implementations live in internal/core, which must not import this
// package — hence the `any` return).
type stateCloner interface{ CloneState() any }

// SchedulerCloner is the optional interface a Scheduler implements to
// support controller cloning. All schedulers in this package implement
// it.
type SchedulerCloner interface{ CloneScheduler() Scheduler }

// CloneScheduler implements SchedulerCloner.
func (s *FRFCFSCap) CloneScheduler() Scheduler {
	cp := *s
	cp.lastBank = append([]int(nil), s.lastBank...)
	cp.lastRow = append([]int(nil), s.lastRow...)
	cp.streak = append([]int(nil), s.streak...)
	return &cp
}

// CloneScheduler implements SchedulerCloner.
func (s *BLISS) CloneScheduler() Scheduler {
	cp := *s
	cp.blacklisted = append([]bool(nil), s.blacklisted...)
	return &cp
}

// Clone returns an independent deep copy of the controller plus the
// old->new mapping of every live request handle (queued, completing, or
// pending). The clone's completion hooks (OnIdlePeriod, OnRNGRound) are
// nil — closures captured the original's environment, so the caller
// re-binds its own. The request freelist is not carried over: it is
// unobservable (recycled handles are zeroed before reuse), so dropping
// it cannot perturb replay. Clone panics if the configured scheduler,
// buffer, or predictor does not support cloning.
func (c *Controller) Clone() (*Controller, map[*Request]*Request) {
	remap := make(map[*Request]*Request)
	cloneReq := func(r *Request) *Request {
		if r == nil {
			return nil
		}
		if n, ok := remap[r]; ok {
			return n
		}
		n := new(Request)
		*n = *r
		remap[r] = n
		return n
	}
	cloneQ := func(q []*Request) []*Request {
		if q == nil {
			return nil
		}
		out := make([]*Request, len(q), cap(q))
		for i, r := range q {
			out[i] = cloneReq(r)
		}
		return out
	}

	cfg := c.cfg
	cfg.OnIdlePeriod = nil
	cfg.OnRNGRound = nil
	if cfg.Scheduler != nil {
		sc, ok := cfg.Scheduler.(SchedulerCloner)
		if !ok {
			panic(fmt.Sprintf("memctrl: scheduler %q does not support cloning", cfg.Scheduler.Name()))
		}
		cfg.Scheduler = sc.CloneScheduler()
	}
	if cfg.Buffer != nil {
		bc, ok := cfg.Buffer.(stateCloner)
		if !ok {
			panic("memctrl: configured buffer does not support cloning")
		}
		cfg.Buffer = bc.CloneState().(Buffer)
	}
	if cfg.Predictor != nil {
		pc, ok := cfg.Predictor.(stateCloner)
		if !ok {
			panic("memctrl: configured predictor does not support cloning")
		}
		cfg.Predictor = pc.CloneState().(IdlePredictor)
	}

	cp := &Controller{
		cfg:            cfg,
		dev:            c.dev.Clone(),
		chans:          make([]channelState, len(c.chans)),
		rngQ:           cloneQ(c.rngQ),
		rngPending:     cloneQ(c.rngPending),
		bufServed:      cloneQ(c.bufServed),
		bufHead:        c.bufHead,
		isRNGApp:       append([]bool(nil), c.isRNGApp...),
		priorities:     append([]int(nil), c.priorities...),
		maxPrio:        c.maxPrio,
		stallCtr:       c.stallCtr,
		deprioRNG:      c.deprioRNG,
		forceOverride:  c.forceOverride,
		enterScratch:   make([]bool, len(c.enterScratch)),
		candScratch:    make([]chanCand, 0, cap(c.candScratch)),
		unblocks:       c.unblocks,
		entropySuspect: c.entropySuspect,
		stats:          c.stats,
	}
	cp.chs = cp.dev.Channels
	for i := range c.chans {
		cs := c.chans[i] // value copy carries every scalar field
		cs.readQ = cloneQ(cs.readQ)
		cs.writeQ = cloneQ(cs.writeQ)
		cs.completions = cloneQ(cs.completions)
		cp.chans[i] = cs
	}
	return cp, remap
}

// RebindHooks installs completion hooks on a cloned controller. Clone
// nils them (they are closures over the original's environment); the
// restoring system re-binds its own observers here.
func (c *Controller) RebindHooks(onIdle func(ch int, length int64), onRound func(ch int, now int64)) {
	c.cfg.OnIdlePeriod = onIdle
	c.cfg.OnRNGRound = onRound
}
