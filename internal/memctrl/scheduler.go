package memctrl

import "drstrange/internal/dram"

// Scheduler orders the regular read queue of a channel. Pick is called
// every tick with the queue in arrival order; it returns the index of
// the request whose next DRAM command should issue, or -1 if no request
// has an issuable command this tick. Schedulers are shared across the
// controller's channels and receive the channel index for per-channel
// state (row-hit streaks).
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Pick selects a request from q for channel ch at tick now.
	Pick(q []*Request, chIdx int, ch *dram.Channel, now int64) int
	// OnServed notifies the scheduler that req's column command issued
	// on channel chIdx (request leaves the queue).
	OnServed(req *Request, chIdx int)
	// Tick advances time-based scheduler state (e.g. BLISS clearing).
	Tick(now int64)
	// NextEventTick returns a lower bound (> now) on the next tick at
	// which Tick would change scheduler state. Schedulers with no
	// time-based state return a far-future tick; the event-driven
	// engine never skips past the returned tick.
	NextEventTick(now int64) int64
}

// noEventTick is the "no time-based event" sentinel schedulers return
// from NextEventTick. It is far enough in the future that no simulation
// reaches it, while leaving headroom against int64 overflow in
// comparisons.
const noEventTick = int64(1) << 62

// reqReadiness classifies how ready a request is to issue this tick.
type reqReadiness uint8

const (
	notIssuable reqReadiness = iota
	issuable                 // PRE or ACT can issue now
	issuableHit              // column command to the open row can issue now
)

// readiness computes whether req's next command can issue at now and
// whether it would be a row-buffer hit.
func readiness(req *Request, ch *dram.Channel, now int64) reqReadiness {
	b := &ch.Banks[req.Addr.Bank]
	if b.RowHit(req.Addr.Row) {
		ok := false
		if req.Kind == KindWrite {
			ok = ch.CanWR(req.Addr.Bank, now)
		} else {
			ok = ch.CanRD(req.Addr.Bank, now)
		}
		if ok {
			return issuableHit
		}
		return notIssuable
	}
	if b.Open {
		if ch.CanPRE(req.Addr.Bank, now) {
			return issuable
		}
		return notIssuable
	}
	if ch.CanACT(req.Addr.Bank, now) {
		return issuable
	}
	return notIssuable
}

// FRFCFSCap is the First-Ready First-Come-First-Serve scheduler
// (row-buffer hits first, then oldest first) with a column-access cap
// (Mutlu & Moscibroda, MICRO 2007): after Cap consecutive row-buffer
// hits to the same row on a channel, further hits to that row lose
// their priority boost, which bounds how long a high-row-locality
// application can starve others. This is the paper's baseline
// scheduler (Table 1: column cap of 16).
type FRFCFSCap struct {
	Cap int
	// per-channel streak state
	lastBank []int
	lastRow  []int
	streak   []int
}

// NewFRFCFSCap returns an FR-FCFS+Cap scheduler for nChannels channels.
func NewFRFCFSCap(cap, nChannels int) *FRFCFSCap {
	s := &FRFCFSCap{
		Cap:      cap,
		lastBank: make([]int, nChannels),
		lastRow:  make([]int, nChannels),
		streak:   make([]int, nChannels),
	}
	for i := range s.lastBank {
		s.lastBank[i] = -1
		s.lastRow[i] = -1
	}
	return s
}

// Name implements Scheduler.
func (*FRFCFSCap) Name() string { return "FR-FCFS+Cap" }

// Pick implements Scheduler.
func (s *FRFCFSCap) Pick(q []*Request, chIdx int, ch *dram.Channel, now int64) int {
	capped := s.streak[chIdx] >= s.Cap
	best, bestClass := -1, notIssuable
	firstHit := -1
	for i, req := range q {
		switch readiness(req, ch, now) {
		case issuableHit:
			hitCapped := capped && req.Addr.Bank == s.lastBank[chIdx] && req.Addr.Row == s.lastRow[chIdx]
			if !hitCapped {
				return i
			}
			if firstHit < 0 {
				firstHit = i
			}
		case issuable:
			if bestClass == notIssuable {
				best, bestClass = i, issuable
			}
		}
	}
	if best >= 0 {
		return best
	}
	// Only capped hits are issuable: serve the oldest of them rather
	// than idling the channel.
	return firstHit
}

// OnServed implements Scheduler.
func (s *FRFCFSCap) OnServed(req *Request, chIdx int) {
	if req.Addr.Bank == s.lastBank[chIdx] && req.Addr.Row == s.lastRow[chIdx] {
		s.streak[chIdx]++
		return
	}
	s.lastBank[chIdx] = req.Addr.Bank
	s.lastRow[chIdx] = req.Addr.Row
	s.streak[chIdx] = 1
}

// Tick implements Scheduler.
func (*FRFCFSCap) Tick(int64) {}

// NextEventTick implements Scheduler: the cap has no time-based state.
func (*FRFCFSCap) NextEventTick(int64) int64 { return noEventTick }

// BLISS is the Blacklisting memory scheduler (Subramanian et al., ICCD
// 2014 / TPDS 2016): an application served BlacklistThreshold requests
// in a row is blacklisted; non-blacklisted applications' requests take
// priority. All blacklist bits clear every ClearInterval cycles. The
// paper uses threshold 4 and a 10000-cycle clearing interval.
type BLISS struct {
	BlacklistThreshold int
	ClearInterval      int64

	blacklisted []bool
	lastCore    int
	streak      int
	nextClear   int64
}

// NewBLISS returns a BLISS scheduler for nCores applications.
func NewBLISS(threshold int, clearInterval int64, nCores int) *BLISS {
	return &BLISS{
		BlacklistThreshold: threshold,
		ClearInterval:      clearInterval,
		blacklisted:        make([]bool, nCores),
		lastCore:           -1,
		nextClear:          clearInterval,
	}
}

// Name implements Scheduler.
func (*BLISS) Name() string { return "BLISS" }

// Pick implements Scheduler.
func (s *BLISS) Pick(q []*Request, _ int, ch *dram.Channel, now int64) int {
	// Priority order: non-blacklisted hit > non-blacklisted any >
	// blacklisted hit > blacklisted any; oldest-first within a class.
	best := -1
	bestScore := -1
	for i, req := range q {
		r := readiness(req, ch, now)
		if r == notIssuable {
			continue
		}
		score := 0
		if !s.blacklisted[req.Core] {
			score += 2
		}
		if r == issuableHit {
			score++
		}
		if score > bestScore {
			best, bestScore = i, score
			if score == 3 {
				return best
			}
		}
	}
	return best
}

// OnServed implements Scheduler.
func (s *BLISS) OnServed(req *Request, _ int) {
	if req.Core == s.lastCore {
		s.streak++
		if s.streak >= s.BlacklistThreshold {
			s.blacklisted[req.Core] = true
		}
		return
	}
	s.lastCore = req.Core
	s.streak = 1
}

// Tick implements Scheduler.
func (s *BLISS) Tick(now int64) {
	if now >= s.nextClear {
		for i := range s.blacklisted {
			s.blacklisted[i] = false
		}
		s.nextClear = now + s.ClearInterval
	}
}

// NextEventTick implements Scheduler: the clearing tick must execute
// even when the blacklist is empty, because Tick re-anchors nextClear
// to the tick it actually ran at — skipping it would shift every later
// clearing boundary.
func (s *BLISS) NextEventTick(int64) int64 { return s.nextClear }

// Blacklisted exposes the blacklist for tests.
func (s *BLISS) Blacklisted(core int) bool { return s.blacklisted[core] }
