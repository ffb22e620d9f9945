package sim

import (
	"slices"
	"sort"
)

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
// the scenario schema's "router" field, and rngbench -router.
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

// ValidRouter reports whether name is an accepted router policy (one
// of RouterNames).
func ValidRouter(name string) bool {
	return slices.Contains(RouterNames(), name)
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
		return scorePolicy(jsqScan), true
	case RouterBufferAware:
		return scorePolicy(bufferAwareScan), true
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

// scorePolicy is a score-based router (jsq, buffer-aware): one scan
// returns the best-scoring shard, lowest index on ties, over every
// shard or, with healthyOnly, over the healthy ones alone. A request
// is rerouted when the scan over every shard lands on a tripped one.
type scorePolicy func(shards []*channelShard, healthyOnly bool) int

func (scan scorePolicy) pick(shards []*channelShard, _ *InjectedRequest) int {
	return scan(shards, false)
}

func (scan scorePolicy) pickHealthy(shards []*channelShard, _ *InjectedRequest) (int, bool) {
	return scan(shards, true), !healthyShard(shards[scan(shards, false)])
}

// jsqScan scores a shard by its live requests: fewest wins.
func jsqScan(shards []*channelShard, healthyOnly bool) int {
	best := -1
	for k, sh := range shards {
		if healthyOnly && !healthyShard(sh) {
			continue
		}
		if best < 0 || sh.live < shards[best].live {
			best = k
		}
	}
	return best
}

// bufferAwareScan scores a shard by its buffered words: most wins, and
// among equally full buffers the least loaded shard (an empty-buffer
// fleet degrades to JSQ rather than hammering shard 0).
func bufferAwareScan(shards []*channelShard, healthyOnly bool) int {
	best, bestWords := -1, 0
	for k, sh := range shards {
		if healthyOnly && !healthyShard(sh) {
			continue
		}
		w := sh.bufferWords()
		if best < 0 || w > bestWords || (w == bestWords && sh.live < shards[best].live) {
			best, bestWords = k, w
		}
	}
	return best
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
