package sim

import (
	"drstrange/internal/cpu"
	"drstrange/internal/memctrl"
)

// Checkpointed warm starts: Snapshot captures the complete steppable
// state of a System — per-shard cores, memory controller (queues, RNG
// buffer, scheduler and predictor state), DRAM channel timing state,
// TRNG mechanism and PRNG stream positions, health-monitor windows and
// quarantine state, and the injection-port bookkeeping — as an
// immutable SystemImage. RestoreSystem forks an independent System
// from the image; restore-then-step is byte-identical to stepping the
// original uninterrupted, on both engines (pinned by the Snapshot*
// differential tests).
//
// Cloning is structural deep copy with pointer remapping, not byte
// serialization: request handles are shared between controller queues,
// core instruction windows, and the injection port, and injected-request
// handles between the arrival schedule, shard waiting queues, and
// in-flight words — each object graph is traversed once with an
// old->new map so sharing is preserved exactly. Closures (the health
// monitor's round hook, the serve layer's completion hook) are not
// copied: the round hook is registered anew on each restored
// controller, closing over the new System, and the completion hook is
// left unset for the caller to re-register via OnInjectionComplete.
//
// The event loop's cached per-shard bounds are copied like any other
// state, so a restored System executes exactly the ticks the original
// would. The controller's Request freelist and the injection port's
// handle freelists are rebuilt with fresh zeroed handles of the same
// counts — recycled handles are zeroed before reuse, so only the counts
// are observable (the recycled-injection counter trajectory).

// SystemImage is a frozen copy of a System's complete steppable state.
// An image is immutable: RestoreSystem deep-copies it again, so one
// image forks any number of byte-identical independent instances. It is
// safe to restore from the same image concurrently.
type SystemImage struct {
	frozen *System
}

// Now reports the tick the image was captured at: a restored System
// resumes from here.
func (img *SystemImage) Now() int64 { return img.frozen.now }

// Shards reports the image's channel shard count.
func (img *SystemImage) Shards() int { return len(img.frozen.shards) }

// Config returns the RunConfig the imaged System was built from.
func (img *SystemImage) Config() RunConfig { return img.frozen.cfg }

// Snapshot captures the System's complete steppable state as an
// immutable image. The System remains usable and unchanged. Snapshot
// panics if a configured component does not support cloning (custom
// schedulers or traces outside this module).
func (s *System) Snapshot() *SystemImage {
	return &SystemImage{frozen: cloneSystem(s)}
}

// RestoreSystem forks an independent System from img, resuming at the
// captured tick. Stepping the restored System is byte-identical to
// stepping the snapshotted one; completion hooks are not carried over
// (re-register via OnInjectionComplete).
func RestoreSystem(img *SystemImage) *System {
	return cloneSystem(img.frozen)
}

// cloneSystem deep-copies a System.
func cloneSystem(s *System) *System {
	irRemap := make(map[*InjectedRequest]*InjectedRequest)
	cloneIR := func(ir *InjectedRequest) *InjectedRequest {
		if ir == nil {
			return nil
		}
		if n, ok := irRemap[ir]; ok {
			return n
		}
		n := new(InjectedRequest)
		*n = *ir
		irRemap[ir] = n
		return n
	}
	cloneIRQ := func(q []*InjectedRequest) []*InjectedRequest {
		if q == nil {
			return nil
		}
		out := make([]*InjectedRequest, len(q), cap(q))
		for i, ir := range q {
			out[i] = cloneIR(ir)
		}
		return out
	}

	cp := &System{
		cfg:         s.cfg,
		policy:      clonePolicy(s.policy),
		engine:      s.engine,
		now:         s.now,
		done:        s.done,
		doneTick:    s.doneTick,
		totalCores:  s.totalCores,
		clientBase:  s.clientBase,
		sched:       cloneIRQ(s.sched),
		schedHead:   s.schedHead,
		irFree:      freshIRs(len(s.irFree)),
		irFresh:     freshIRs(len(s.irFresh)),
		injLive:     s.injLive,
		injPeak:     s.injPeak,
		injRecycled: s.injRecycled,
		tripsLive:   s.tripsLive,
		availFrom:   s.availFrom,
		availUntil:  s.availUntil,
		admitMode:   s.admitMode,
		admitDepth:  s.admitDepth,
		shedMinPrio: s.shedMinPrio,
	}

	for _, sh := range s.shards {
		ctrl, reqRemap := sh.ctrl.Clone()
		cloneReq := func(r *memctrl.Request) *memctrl.Request {
			if r == nil {
				return nil
			}
			if n, ok := reqRemap[r]; ok {
				return n
			}
			n := new(memctrl.Request)
			*n = *r
			reqRemap[r] = n
			return n
		}

		sh2 := &channelShard{}
		*sh2 = *sh // scalars: stats, accounting, cached bound, ...
		sh2.ctrl = ctrl
		// Config's interface fields must point at the clone's buffer/
		// predictor/scheduler (the router reads the buffer through mcfg).
		sh2.mcfg = ctrl.Config()

		sh2.cores = make([]*cpu.Core, len(sh.cores))
		for i, c := range sh.cores {
			sh2.cores[i] = c.Clone(ctrl, reqRemap)
		}
		sh2.names = append([]string(nil), sh.names...)

		sh2.waiting = cloneIRQ(sh.waiting)
		sh2.outstanding = make([]injWord, len(sh.outstanding), cap(sh.outstanding))
		for i, w := range sh.outstanding {
			sh2.outstanding[i] = injWord{req: cloneReq(w.req), ir: cloneIR(w.ir)}
		}

		if sh.health != nil {
			h := *sh.health // EntropyStream and scalars copy by value
			h.mon = sh.health.mon.Clone()
			sh2.health = &h
			ctrl.OnRNGRound(func(_ int, now int64) { cp.observeRound(sh2, now) })
		}

		cp.shards = append(cp.shards, sh2)
	}
	return cp
}

// clonePolicy deep-copies a routing policy. Round-robin is the only
// stateful policy (its cursor must replay); the rest are stateless
// values safe to share.
func clonePolicy(p routePolicy) routePolicy {
	if rr, ok := p.(*roundRobinPolicy); ok {
		cp := *rr
		return &cp
	}
	return p
}

// freshIRs builds a freelist of n zeroed injected-request handles:
// freelist contents are unobservable (handles are zeroed on reuse), but
// the counts drive the recycled-injection counter, so they replay.
func freshIRs(n int) []*InjectedRequest {
	if n == 0 {
		return nil
	}
	block := make([]InjectedRequest, n)
	out := make([]*InjectedRequest, n)
	for i := range block {
		out[i] = &block[i]
	}
	return out
}
