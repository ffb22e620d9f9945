package energy

import (
	"testing"

	"drstrange/internal/dram"
)

func baseCounts() Counts {
	return Counts{
		ACTs: 1000, RDs: 3000, WRs: 1000, REFs: 10,
		ActiveTicks: 50000, TotalChannelTicks: 400000,
		RNGRounds: 0, BanksPerChannel: 8,
	}
}

func TestComputePositiveComponents(t *testing.T) {
	b := Compute(DDR3Params(), dram.DDR3_1600(), baseCounts())
	if b.ActPre <= 0 || b.Read <= 0 || b.Write <= 0 || b.Refresh <= 0 || b.Background <= 0 {
		t.Fatalf("non-positive component: %+v", b)
	}
	sum := b.ActPre + b.Read + b.Write + b.Refresh + b.RNG + b.Background
	if b.Total != sum {
		t.Fatal("total != sum of components")
	}
	if b.String() == "" {
		t.Fatal("empty render")
	}
}

func TestBackgroundDominatesIdleSystem(t *testing.T) {
	c := baseCounts()
	c.ACTs, c.RDs, c.WRs = 1, 1, 0
	b := Compute(DDR3Params(), dram.DDR3_1600(), c)
	if b.Background < b.ActPre+b.Read+b.Write {
		t.Fatal("idle system should be background-dominated")
	}
}

func TestMoreCommandsMoreEnergy(t *testing.T) {
	p, tm := DDR3Params(), dram.DDR3_1600()
	lo := Compute(p, tm, baseCounts())
	c := baseCounts()
	c.ACTs *= 2
	c.RDs *= 2
	hi := Compute(p, tm, c)
	if hi.Total <= lo.Total {
		t.Fatal("doubling commands did not raise energy")
	}
}

func TestShorterRuntimeLessBackground(t *testing.T) {
	p, tm := DDR3Params(), dram.DDR3_1600()
	long := baseCounts()
	short := baseCounts()
	short.TotalChannelTicks /= 2
	short.ActiveTicks /= 2
	if Compute(p, tm, short).Total >= Compute(p, tm, long).Total {
		t.Fatal("shorter run should consume less energy (the paper's 21% effect)")
	}
}

func TestRNGRoundsPriced(t *testing.T) {
	p, tm := DDR3Params(), dram.DDR3_1600()
	c := baseCounts()
	c.RNGRounds = 500
	b := Compute(p, tm, c)
	if b.RNG <= 0 {
		t.Fatal("RNG rounds not priced")
	}
	if b.Total <= Compute(p, tm, baseCounts()).Total {
		t.Fatal("RNG activity should add energy")
	}
}

func TestActiveStandbyCostsMoreThanPrecharge(t *testing.T) {
	p, tm := DDR3Params(), dram.DDR3_1600()
	active := baseCounts()
	active.ActiveTicks = active.TotalChannelTicks
	idle := baseCounts()
	idle.ActiveTicks = 0
	if Compute(p, tm, active).Background <= Compute(p, tm, idle).Background {
		t.Fatal("active standby should cost more than precharge standby")
	}
}

func TestCountsFrom(t *testing.T) {
	dev := dram.MustDevice(dram.DefaultGeometry(), dram.DDR3_1600())
	dev.Channel(0).IssueACT(0, 0, 0)
	dev.Channel(0).CountTicks(1)
	c := CountsFrom(dev, 100, 7)
	if c.ACTs != 1 {
		t.Fatalf("acts = %d", c.ACTs)
	}
	if c.TotalChannelTicks != 400 {
		t.Fatalf("channel ticks = %d", c.TotalChannelTicks)
	}
	if c.ActiveTicks != 1 {
		t.Fatalf("active ticks = %d", c.ActiveTicks)
	}
	if c.RNGRounds != 7 || c.BanksPerChannel != 8 {
		t.Fatal("rng/banks plumbed wrong")
	}
}

func TestComputePanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Compute(Params{}, dram.DDR3_1600(), baseCounts())
}

func TestNegativeIdleClamped(t *testing.T) {
	c := baseCounts()
	c.ActiveTicks = c.TotalChannelTicks + 50 // inconsistent input
	b := Compute(DDR3Params(), dram.DDR3_1600(), c)
	if b.Background <= 0 {
		t.Fatal("background should still be positive")
	}
}
