// Package workload sits on a guarded import path (internal/workload),
// so detlint checks every construct in it: the seeded violations here
// pin each rule, the clean functions pin the rules' boundaries.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Wall reads the wall clock.
func Wall() int64 {
	return time.Now().UnixNano() // want `time\.Now reads the wall clock`
}

// Elapsed measures wall time.
func Elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since reads the wall clock`
}

// GlobalRand consumes the shared, globally seeded source.
func GlobalRand() int {
	return rand.Intn(6) // want `global rand\.Intn uses the shared, nondeterministically seeded source`
}

// LocalRand builds locally seeded state: the constructors and instance
// methods are the deterministic API and must stay legal.
func LocalRand() int {
	r := rand.New(rand.NewSource(1))
	return r.Intn(6)
}

// SumMap folds map values into state declared outside the loop.
func SumMap(m map[string]int) int {
	total := 0
	for _, v := range m { // want `map iteration order is randomized and this loop writes to "total" declared outside the loop`
		total += v
	}
	return total
}

// Prune deletes from the ranged map itself.
func Prune(m map[string]int) {
	for k, v := range m { // want `deletes from "m" declared outside the loop`
		if v == 0 {
			delete(m, k)
		}
	}
}

// Dump produces output from inside a map range.
func Dump(m map[string]int) {
	for k, v := range m { // want `writes output via fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

// LocalOnly keeps every write loop-local; an order-insensitive body
// needs no waiver.
func LocalOnly(m map[string]int) {
	for k, v := range m {
		s := k
		n := v * 2
		_ = s
		_ = n
	}
}

// Keys collects then sorts — the canonical waived pattern; the
// directive with a reason suppresses the finding.
func Keys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	//drstrange:nondet-ok collect-then-sort: the slice is sorted before it is returned
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Unjustified carries a reason-less waiver: the directive itself is
// reported, and it does not suppress the finding.
func Unjustified(m map[string]int) int {
	n := 0
	//drstrange:nondet-ok
	// want-1 `//drstrange:nondet-ok requires a reason`
	for range m { // want `map iteration order is randomized`
		n++
	}
	return n
}

// Race chooses among two ready channels pseudo-randomly.
func Race(a, b chan int) int {
	select { // want `select with 2 communication cases`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// TryRecv is a single communication case plus default: deterministic.
func TryRecv(a chan int) (int, bool) {
	select {
	case v := <-a:
		return v, true
	default:
		return 0, false
	}
}

// Sweep iterates a sync.Map in unspecified order.
func Sweep(m *sync.Map) int {
	n := 0
	m.Range(func(k, v any) bool { // want `sync\.Map\.Range iterates in unspecified order`
		n++
		return true
	})
	return n
}

// engine and calls are package-level state; table is initialized in its
// declaration, which is not a write from a function body.
var (
	engine string
	calls  int
	table  = map[string]int{"init": 1}
)

// SelectEngine overrides a process-global knob.
func SelectEngine(name string) {
	engine = name // want `write to package-level variable "engine" is process-global state`
}

// Count bumps a package-level counter.
func Count() {
	calls++ // want `write to package-level variable "calls"`
}

// Record writes through a package-level map.
func Record(k string) {
	table[k] = len(k) // want `write to package-level variable "table"`
}

// ResetCalls carries a waiver with a reason: suppressed.
func ResetCalls() {
	calls = 0 //drstrange:nondet-ok test-only reset of a counter no simulation reads
}

// Shadow writes a local that shares a package-level name, and reads the
// package-level state without writing it: neither is flagged.
func Shadow() int {
	engine := "local"
	engine = engine + "!"
	calls := calls + table["init"]
	calls++
	return len(engine) + calls
}

// Typod carries a directive whose verb names nothing: the typo scan
// must flag it, or a misspelled waiver would silently stop waiving.
func Typod() {
	//drstrange:nodet-ok the verb is typo'd, so this must be flagged
	// want-1 `unknown directive //drstrange:nodet-ok`
}
