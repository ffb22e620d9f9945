package sim

import "sort"

// Request routing across channel shards. A sharded System (RunConfig.
// Shards > 1) is N independent DRAM channels — each with its own memory
// controller, RNG buffer, and TRNG mechanism instance — behind one
// injection port. The router decides, per arriving request, which shard
// serves it. Routing happens at the request's exact arrival tick (not
// at InjectRNG time), so queue- and buffer-aware policies observe the
// shards' live state at the moment a real front end would dispatch.
//
// Every policy is deterministic: ties break toward the lowest shard
// index, so runs are byte-identical across engines and StepTo slicings
// (the router sees identical shard state at every arrival tick under
// all of them, by the engine invariant).
//
// When health monitoring is on and part of the fleet is tripped
// (health.go), the system dispatches through pickHealthy instead: the
// same policy restricted to healthy shards, with a defined failover
// order so degraded runs stay exactly as deterministic as clean ones.
// Index-order policies (round-robin, sticky) fail over by ascending
// scan from the natural choice, wrapping; score-based policies (jsq,
// buffer-aware) apply their scoring over the healthy subset with the
// same lowest-index tie-breaks. The reported rerouted flag is true
// when the unrestricted policy would have chosen a tripped shard.

// Router policy names accepted by RunConfig.Router, ServeConfig.Router,
// the scenario schema's "router" field, and DRSTRANGE_ROUTER.
const (
	// RouterRoundRobin cycles arrivals across shards in order. The
	// default: oblivious to load, perfectly fair in request count.
	RouterRoundRobin = "round-robin"
	// RouterJSQ joins the shortest queue: the shard with the fewest
	// injected requests alive (waiting or in flight).
	RouterJSQ = "jsq"
	// RouterBufferAware prefers the shard whose random number buffer
	// holds the most ready words — requests land where they can be
	// served from buffered entropy instead of triggering generation.
	RouterBufferAware = "buffer-aware"
	// RouterSticky pins each client to one shard (client mod shards):
	// locality for per-client buffer partitions, at the cost of load
	// imbalance when clients are skewed.
	RouterSticky = "sticky"
)

// RouterNames lists the accepted router policy names, sorted.
func RouterNames() []string {
	names := []string{RouterRoundRobin, RouterJSQ, RouterBufferAware, RouterSticky}
	sort.Strings(names)
	return names
}

// ValidRouter reports whether name is an accepted router policy.
func ValidRouter(name string) bool {
	switch name {
	case RouterRoundRobin, RouterJSQ, RouterBufferAware, RouterSticky:
		return true
	}
	return false
}

// routePolicy picks the serving shard for one arriving request. pick is
// called at the request's arrival tick with the shards' live state.
// pickHealthy is the health-restricted variant, called only while the
// fleet is partially degraded (at least one healthy and one tripped
// shard): it must return a healthy shard, and reports whether the
// unrestricted pick would have landed on a tripped one (the request
// counts as rerouted). Policies with internal state (round-robin's
// cursor) must advance it identically on both paths, so switching
// between them mid-run never desynchronizes the sequence.
type routePolicy interface {
	pick(shards []*channelShard, ir *InjectedRequest) int
	pickHealthy(shards []*channelShard, ir *InjectedRequest) (int, bool)
}

// failover returns the first healthy shard at or after k in ascending
// wrap-around order — the failover rule shared by the index-order
// policies. The caller guarantees at least one healthy shard.
func failover(shards []*channelShard, k int) int {
	for i := 0; i < len(shards); i++ {
		if j := (k + i) % len(shards); healthyShard(shards[j]) {
			return j
		}
	}
	return k
}

// newRoutePolicy builds the policy for a validated router name.
func newRoutePolicy(name string) (routePolicy, bool) {
	switch name {
	case RouterRoundRobin:
		return &roundRobinPolicy{}, true
	case RouterJSQ:
		return jsqPolicy{}, true
	case RouterBufferAware:
		return bufferAwarePolicy{}, true
	case RouterSticky:
		return stickyPolicy{}, true
	}
	return nil, false
}

type roundRobinPolicy struct{ next int }

func (p *roundRobinPolicy) pick(shards []*channelShard, _ *InjectedRequest) int {
	k := p.next % len(shards)
	p.next++
	return k
}

func (p *roundRobinPolicy) pickHealthy(shards []*channelShard, ir *InjectedRequest) (int, bool) {
	k := p.pick(shards, ir)
	if healthyShard(shards[k]) {
		return k, false
	}
	return failover(shards, k), true
}

type jsqPolicy struct{}

func (jsqPolicy) pick(shards []*channelShard, _ *InjectedRequest) int {
	best := 0
	for k := 1; k < len(shards); k++ {
		if shards[k].live < shards[best].live {
			best = k
		}
	}
	return best
}

func (p jsqPolicy) pickHealthy(shards []*channelShard, ir *InjectedRequest) (int, bool) {
	best := -1
	for k := 0; k < len(shards); k++ {
		if !healthyShard(shards[k]) {
			continue
		}
		if best < 0 || shards[k].live < shards[best].live {
			best = k
		}
	}
	return best, !healthyShard(shards[p.pick(shards, ir)])
}

type bufferAwarePolicy struct{}

func (bufferAwarePolicy) pick(shards []*channelShard, _ *InjectedRequest) int {
	// Most buffered words wins; among equally full buffers fall back to
	// the least loaded shard (an empty-buffer fleet degrades to JSQ
	// rather than hammering shard 0).
	best := 0
	bestWords := shards[0].bufferWords()
	for k := 1; k < len(shards); k++ {
		w := shards[k].bufferWords()
		if w > bestWords || (w == bestWords && shards[k].live < shards[best].live) {
			best, bestWords = k, w
		}
	}
	return best
}

func (p bufferAwarePolicy) pickHealthy(shards []*channelShard, ir *InjectedRequest) (int, bool) {
	best, bestWords := -1, 0
	for k := 0; k < len(shards); k++ {
		if !healthyShard(shards[k]) {
			continue
		}
		w := shards[k].bufferWords()
		if best < 0 || w > bestWords || (w == bestWords && shards[k].live < shards[best].live) {
			best, bestWords = k, w
		}
	}
	return best, !healthyShard(shards[p.pick(shards, ir)])
}

type stickyPolicy struct{}

func (stickyPolicy) pick(shards []*channelShard, ir *InjectedRequest) int {
	return ir.Client % len(shards)
}

// pickHealthy defines sticky's failover order: a client whose home
// shard (client mod shards) is tripped is served by the first healthy
// shard in ascending wrap-around order from the home index — shard
// (home+1) mod N, then (home+2) mod N, and so on. The request returns
// home the moment the home shard re-qualifies (stickiness is a pure
// function of client and fleet health, with no failover memory).
func (p stickyPolicy) pickHealthy(shards []*channelShard, ir *InjectedRequest) (int, bool) {
	home := p.pick(shards, ir)
	if healthyShard(shards[home]) {
		return home, false
	}
	return failover(shards, home+1), true
}
