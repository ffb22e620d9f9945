package sim

import "sort"

// Request classes and admission policies: the overload-robustness
// vocabulary of the serving layer. A RequestClass attaches a service
// priority and an optional completion deadline to injected RNG
// requests; an admission policy decides, at the routing tick, whether
// an arriving request is accepted into its shard's queue or shed. Both
// extend the paper's RNG/non-RNG fairness story to fairness between
// traffic classes under overload — scenarios the paper never plots.
//
// The tables are fixed: classes and policies are named vocabulary, not
// open plugin points, so scenario files validate against a closed list
// and goldens cannot drift under a renamed class.

// RequestClass is one traffic class of the injection port.
type RequestClass struct {
	// Name identifies the class (ClassNames lists the vocabulary).
	Name string
	// Priority orders service: higher-priority requests are queued ahead
	// of lower-priority ones at the shard front end and in the memory
	// controller's RNG queue. Equal priorities preserve FIFO order, so
	// an unclassed stream (all zero) is byte-identical to the historical
	// queues.
	Priority int
	// DeadlineTicks is the class's completion deadline in memory cycles
	// from submission; 0 means best-effort (no deadline). A request that
	// has not started generating when its deadline passes is failed with
	// an explicit deadline-miss mark — the generalization of the
	// degraded-mode trng.FailDeadlineTicks to per-class deadlines.
	DeadlineTicks int64
}

// The built-in class vocabulary.
const (
	// ClassKeygen is the high-priority, short-deadline class: interactive
	// key generation that must meet a latency SLO (4000 ticks = 20 µs).
	ClassKeygen = "keygen"
	// ClassStandard is the default mid-tier class: prioritized over bulk,
	// with a loose deadline (20000 ticks = 100 µs).
	ClassStandard = "standard"
	// ClassBulk is the best-effort class: lowest priority, no deadline —
	// the first class an admission policy sheds under overload.
	ClassBulk = "bulk"
)

// requestClasses is the closed class table.
var requestClasses = map[string]RequestClass{
	ClassKeygen:   {Name: ClassKeygen, Priority: 2, DeadlineTicks: 4_000},
	ClassStandard: {Name: ClassStandard, Priority: 1, DeadlineTicks: 20_000},
	ClassBulk:     {Name: ClassBulk, Priority: 0, DeadlineTicks: 0},
}

// ClassByName resolves a request class by name.
func ClassByName(name string) (RequestClass, bool) {
	c, ok := requestClasses[name]
	return c, ok
}

// ValidClass reports whether name is a known request class.
func ValidClass(name string) bool {
	_, ok := requestClasses[name]
	return ok
}

// ClassNames lists the accepted request class names, sorted.
func ClassNames() []string {
	out := make([]string, 0, len(requestClasses))
	for k := range requestClasses { //drstrange:nondet-ok collect-then-sort: the slice is sorted before it is returned
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Admission policies: what the routing front end does with an arrival
// when its shard is overloaded (queue depth at the admission bound, or
// the bound halved while the shard's entropy buffer is dry).
const (
	// AdmissionNone accepts everything — the historical behavior, byte
	// for byte.
	AdmissionNone = "none"
	// AdmissionDropLowest sheds only the lowest-priority class once the
	// shard's queue reaches the admission bound; higher classes are
	// always admitted.
	AdmissionDropLowest = "drop-lowest-class"
	// AdmissionThreshold sheds by per-class depth thresholds: a request
	// of priority p is shed when the shard's queue has reached
	// (p+1) × the admission bound, so each extra priority level buys a
	// proportionally deeper queue before shedding starts.
	AdmissionThreshold = "threshold-by-depth"
)

// admission is the resolved policy discriminant consulted per arrival.
type admission uint8

const (
	admitNone admission = iota
	admitDropLowest
	admitThreshold
)

// admissionMode resolves a policy name ("" means none).
func admissionMode(name string) (admission, bool) {
	switch name {
	case "", AdmissionNone:
		return admitNone, true
	case AdmissionDropLowest:
		return admitDropLowest, true
	case AdmissionThreshold:
		return admitThreshold, true
	default:
		return admitNone, false
	}
}

// ValidAdmission reports whether name is a known admission policy.
func ValidAdmission(name string) bool {
	_, ok := admissionMode(name)
	return ok
}

// AdmissionNames lists the accepted admission policy names, sorted.
func AdmissionNames() []string {
	return []string{AdmissionDropLowest, AdmissionNone, AdmissionThreshold}
}

// DefaultAdmitDepth is the per-shard queue-depth admission bound when
// none is configured.
const DefaultAdmitDepth = 64
