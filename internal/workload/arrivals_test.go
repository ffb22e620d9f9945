package workload

import (
	"math"
	"testing"
)

// nextArrival draws the next arrival with no horizon.
func nextArrival(a Arrivals) int64 {
	t, _ := a.NextArrival(math.MaxInt64)
	return t
}

// measureRate draws n arrivals and returns the empirical mean rate in
// requests per tick.
func measureRate(a Arrivals, n int) float64 {
	var last int64
	for i := 0; i < n; i++ {
		last = nextArrival(a)
	}
	if last == 0 {
		return math.Inf(1)
	}
	return float64(n) / float64(last)
}

// TestArrivalRates requires every process to hit its configured mean
// rate within a few percent over a long draw, across the rate range the
// serving sweeps use.
func TestArrivalRates(t *testing.T) {
	for _, rate := range []float64{0.0125, 0.1, 0.4, 2.5} {
		for _, name := range ArrivalNames() {
			a, err := NewArrivals(name, rate, 0.3, 42)
			if err != nil {
				t.Fatal(err)
			}
			got := measureRate(a, 200_000)
			if rel := math.Abs(got-rate) / rate; rel > 0.05 {
				t.Errorf("%s@%g: measured rate %g (%.1f%% off)", name, rate, got, rel*100)
			}
		}
	}
}

// TestArrivalsMonotoneAndDeterministic pins the Arrivals contract: the
// tick stream is non-decreasing, and the same seed reproduces the same
// stream exactly.
func TestArrivalsMonotoneAndDeterministic(t *testing.T) {
	for _, name := range ArrivalNames() {
		a1, _ := NewArrivals(name, 0.2, 0.3, 99)
		a2, _ := NewArrivals(name, 0.2, 0.3, 99)
		prev := int64(-1)
		for i := 0; i < 10_000; i++ {
			t1, t2 := nextArrival(a1), nextArrival(a2)
			if t1 != t2 {
				t.Fatalf("%s: streams diverge at draw %d: %d vs %d", name, i, t1, t2)
			}
			if t1 < prev {
				t.Fatalf("%s: arrivals went backwards: %d after %d", name, t1, prev)
			}
			prev = t1
		}
	}
}

// TestBurstyArrivalsBurstier checks that burstiness does what it says:
// the bursty process's inter-arrival variance exceeds the Poisson
// process's at the same mean rate.
func TestBurstyArrivalsBurstier(t *testing.T) {
	variance := func(a Arrivals, n int) float64 {
		gaps := make([]float64, n)
		prev := int64(0)
		var mean float64
		for i := range gaps {
			next := nextArrival(a)
			gaps[i] = float64(next - prev)
			mean += gaps[i]
			prev = next
		}
		mean /= float64(n)
		var v float64
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		return v / float64(n)
	}
	const rate = 0.05
	vPoisson := variance(NewPoissonArrivals(rate, 7), 100_000)
	vBursty := variance(NewBurstyArrivals(rate, 0.3, 7), 100_000)
	if vBursty <= vPoisson*1.2 {
		t.Errorf("bursty variance %g not above poisson %g", vBursty, vPoisson)
	}
}

// TestDiurnalRatesModulate checks the diurnal trace actually modulates:
// arrivals cluster in the high-rate half of the period.
func TestDiurnalRatesModulate(t *testing.T) {
	a, _ := NewArrivals(ArrivalDiurnal, 0.1, 0, 5)
	counts := make([]int, 2)
	for i := 0; i < 100_000; i++ {
		tick := nextArrival(a)
		counts[(tick%DiurnalPeriod)*2/DiurnalPeriod]++
	}
	// The first half of the sinusoid is the high-rate half.
	if counts[0] <= counts[1]*11/10 {
		t.Errorf("diurnal modulation missing: %d arrivals in peak half vs %d in trough half", counts[0], counts[1])
	}
}

// TestNewArrivalsUnknown requires an error (not a silent default) for
// unknown process names.
func TestNewArrivalsUnknown(t *testing.T) {
	if _, err := NewArrivals("uniform", 0.1, 0, 0); err == nil {
		t.Error("expected error for unknown arrival process")
	}
}
