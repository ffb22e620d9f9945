package workload

import (
	"math"
	"testing"

	"drstrange/internal/cpu"
	"drstrange/internal/dram"
)

func TestSuiteHas43Applications(t *testing.T) {
	if len(Profiles()) != 43 {
		t.Fatalf("suite size = %d, want 43 (paper Section 7)", len(Profiles()))
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Profiles() {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestFigureAppsExist(t *testing.T) {
	if len(FigureApps()) != 23 {
		t.Fatalf("figure apps = %d, want 23", len(FigureApps()))
	}
	for _, name := range FigureApps() {
		if _, ok := ByName(name); !ok {
			t.Fatalf("figure app %q missing from suite", name)
		}
	}
}

func TestClassBoundaries(t *testing.T) {
	cases := []struct {
		mpki float64
		want Class
	}{{0.5, ClassL}, {0.99, ClassL}, {1.0, ClassM}, {9.99, ClassM}, {10, ClassH}, {35, ClassH}}
	for _, c := range cases {
		p := Profile{MPKI: c.mpki}
		if p.Class() != c.want {
			t.Fatalf("MPKI %v classed %v, want %v", c.mpki, p.Class(), c.want)
		}
	}
}

func TestEveryClassPopulated(t *testing.T) {
	for _, c := range []Class{ClassL, ClassM, ClassH} {
		if n := len(ByClass(c)); n < 5 {
			t.Fatalf("class %v has only %d apps; mixes need variety", c, n)
		}
	}
}

func TestClassStrings(t *testing.T) {
	if ClassL.String() != "L" || ClassM.String() != "M" || ClassH.String() != "H" {
		t.Fatal("class names wrong")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown app")
		}
	}()
	MustByName("no-such-app")
}

// measureTrace drains ops and returns empirical MPKI, write ratio and
// row-reuse ratio.
func measureTrace(tr cpu.Trace, n int) (mpki, writeRatio float64) {
	inst, mem, writes := 0, 0, 0
	for i := 0; i < n; i++ {
		op := tr.NextOp()
		inst += op.NonMem + 1
		mem++
		if op.Kind == cpu.OpStore {
			writes++
		}
	}
	return float64(mem) / float64(inst) * 1000, float64(writes) / float64(mem)
}

func TestTraceMatchesMPKITarget(t *testing.T) {
	geom := dram.DefaultGeometry()
	for _, name := range []string{"ycsb0", "soplex", "libq", "mcf"} {
		p := MustByName(name)
		tr := p.NewTrace(geom, 0, 1)
		mpki, wr := measureTrace(tr, 20000)
		if math.Abs(mpki-p.MPKI)/p.MPKI > 0.15 {
			t.Errorf("%s: empirical MPKI %.2f vs target %.2f", name, mpki, p.MPKI)
		}
		if math.Abs(wr-p.WriteRatio) > 0.05 {
			t.Errorf("%s: write ratio %.2f vs target %.2f", name, wr, p.WriteRatio)
		}
	}
}

func TestTraceDeterministic(t *testing.T) {
	geom := dram.DefaultGeometry()
	p := MustByName("mcf")
	a, b := p.NewTrace(geom, 0, 42), p.NewTrace(geom, 0, 42)
	for i := 0; i < 1000; i++ {
		if a.NextOp() != b.NextOp() {
			t.Fatalf("op %d differs", i)
		}
	}
}

func TestTraceSeedsDiffer(t *testing.T) {
	geom := dram.DefaultGeometry()
	p := MustByName("mcf")
	a, b := p.NewTrace(geom, 0, 1), p.NewTrace(geom, 0, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.NextOp() == b.NextOp() {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceRowLocality(t *testing.T) {
	geom := dram.DefaultGeometry()
	// High-locality app should reuse (channel,bank,row) triples far
	// more often than a low-locality one.
	reuse := func(name string) float64 {
		tr := MustByName(name).NewTrace(geom, 0, 7)
		var prev dram.Addr
		hits, total := 0, 0
		for i := 0; i < 5000; i++ {
			op := tr.NextOp()
			a := geom.Map(op.Line)
			if i > 0 && a.Channel == prev.Channel && a.Bank == prev.Bank && a.Row == prev.Row {
				hits++
			}
			prev = a
			total++
		}
		return float64(hits) / float64(total)
	}
	if lo, hi := reuse("mcf"), reuse("libq"); hi < lo+0.3 {
		t.Fatalf("row reuse: libq %.2f vs mcf %.2f — locality knob ineffective", hi, lo)
	}
}

func TestTraceWorkingSetRespectsRowBase(t *testing.T) {
	geom := dram.DefaultGeometry()
	p := MustByName("libq") // 256-row working set
	tr := p.NewTrace(geom, 10000, 3)
	for i := 0; i < 2000; i++ {
		op := tr.NextOp()
		row := geom.Map(op.Line).Row
		if row < 10000 || row >= 10000+p.WorkingSetRows {
			t.Fatalf("row %d outside working set [10000, %d)", row, 10000+p.WorkingSetRows)
		}
	}
}

func TestRNGTraceGapMatchesPaper(t *testing.T) {
	// Section 7 calibration: 640 Mb/s -> 1200 instructions between
	// requests; 5120 Mb/s -> 150 (4 GHz, 3-wide).
	cases := map[float64]int{640: 1200, 1280: 600, 2560: 300, 5120: 150, 10240: 75}
	for mbps, want := range cases {
		cfg := DefaultRNGTraceConfig(mbps)
		if got := cfg.InstructionGap(); got != want {
			t.Fatalf("gap(%v) = %d, want %d", mbps, got, want)
		}
	}
}

// TestRNGTraceGapShrinksAsRateGrows: a higher required throughput never
// lengthens the gap between requests. A rate so small that the gap
// overflows an int must get the longest gap, not wrap around to the
// shortest.
func TestRNGTraceGapShrinksAsRateGrows(t *testing.T) {
	prev := 0
	for i, mbps := range []float64{1e-300, 1e-15, 1e-13, 1e-9, 640, 5120} {
		gap := DefaultRNGTraceConfig(mbps).InstructionGap()
		if i > 0 && gap > prev {
			t.Errorf("gap(%g) = %d exceeds the gap %d of a smaller rate", mbps, gap, prev)
		}
		prev = gap
	}
}

func TestRNGTraceEmitsRandsAndLightLoads(t *testing.T) {
	geom := dram.DefaultGeometry()
	tr := NewRNGTrace(DefaultRNGTraceConfig(5120), geom)
	rands, loads := 0, 0
	inst := 0
	for i := 0; i < 5000; i++ {
		op := tr.NextOp()
		inst += op.NonMem + 1
		switch op.Kind {
		case cpu.OpRand:
			rands++
		case cpu.OpLoad:
			loads++
		default:
			t.Fatalf("unexpected op kind %v", op.Kind)
		}
	}
	if rands == 0 {
		t.Fatal("no RNG requests")
	}
	if loads == 0 {
		t.Fatal("no light loads (benchmark must touch memory)")
	}
	// Light loads: roughly MPKI 0.5.
	mpki := float64(loads) / float64(inst) * 1000
	if mpki > 1.5 {
		t.Fatalf("RNG benchmark too memory intensive: MPKI %.2f", mpki)
	}
}

func TestRNGTracePanicsOnZeroThroughput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRNGTrace(RNGTraceConfig{}, dram.DefaultGeometry())
}

func TestTwoCoreMixCount(t *testing.T) {
	mixes := TwoCoreMixes(5120)
	if n := len(mixes); n != 43 {
		t.Fatalf("two-core mixes = %d, want 43", n)
	}
	for _, m := range mixes {
		if m.Cores() != 2 {
			t.Fatalf("mix %s has %d cores, want 2", m.Name, m.Cores())
		}
	}
	if n := len(FigureTwoCoreMixes(5120)); n != 23 {
		t.Fatalf("figure two-core mixes = %d, want 23", n)
	}
}

func TestFourCoreGroupsMatchTable3(t *testing.T) {
	groups := FourCoreGroups()
	if len(groups) != 4 {
		t.Fatalf("groups = %d", len(groups))
	}
	total := 0
	for name, mixes := range groups {
		if len(mixes) != 10 {
			t.Fatalf("group %s has %d mixes, want 10", name, len(mixes))
		}
		total += len(mixes)
		for _, m := range mixes {
			if m.Cores() != 4 {
				t.Fatalf("mix %s has %d cores, want 4", m.Name, m.Cores())
			}
			if m.RNGMbps != 5120 {
				t.Fatalf("mix %s RNG rate %v", m.Name, m.RNGMbps)
			}
		}
	}
	if total != 40 {
		t.Fatalf("four-core workloads = %d, want 40 (Table 3)", total)
	}
	// Class composition: LLHS = two L apps + one H app.
	for _, m := range groups["LLHS"] {
		l, h := 0, 0
		for _, a := range m.Apps {
			switch MustByName(a).Class() {
			case ClassL:
				l++
			case ClassH:
				h++
			}
		}
		if l != 2 || h != 1 {
			t.Fatalf("mix %s composition wrong: %v", m.Name, m.Apps)
		}
	}
}

func TestMultiCoreGroupsMatchTable3(t *testing.T) {
	for _, cores := range []int{8, 16} {
		groups := MultiCoreGroups(cores)
		total := 0
		for class, mixes := range groups {
			if len(mixes) != 10 {
				t.Fatalf("%d-core class %s: %d mixes", cores, class, len(mixes))
			}
			total += len(mixes)
			for _, m := range mixes {
				if m.Cores() != cores {
					t.Fatalf("mix %s cores = %d", m.Name, m.Cores())
				}
				for _, a := range m.Apps {
					if MustByName(a).Class().String() != class {
						t.Fatalf("mix %s: app %s outside class %s", m.Name, a, class)
					}
				}
			}
		}
		if total != 30 {
			t.Fatalf("%d-core workloads = %d, want 30 (Table 3)", cores, total)
		}
	}
}

func TestMixesDeterministic(t *testing.T) {
	a := FourCoreGroups()
	b := FourCoreGroups()
	for g := range a {
		for i := range a[g] {
			if a[g][i].Name != b[g][i].Name || len(a[g][i].Apps) != len(b[g][i].Apps) {
				t.Fatal("mix construction not deterministic")
			}
			for j := range a[g][i].Apps {
				if a[g][i].Apps[j] != b[g][i].Apps[j] {
					t.Fatal("mix apps not deterministic")
				}
			}
		}
	}
}

func TestMultiCoreGroupsPanicsOnOneCore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MultiCoreGroups(1)
}
