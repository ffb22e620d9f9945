package sim

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestSection6GoldenByteIdenticalEngines pins the Section 6 probe
// experiments byte for byte under both engines. testdata/sec6_golden.txt
// was rendered when the probes still ran on hand-stepped controllers
// beside System; the 400000-instruction budget (800 and 400 probes per
// phase) is the finer pin.
func TestSection6GoldenByteIdenticalEngines(t *testing.T) {
	want, err := os.ReadFile("testdata/sec6_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{EngineEvent, EngineTicked} {
		var b strings.Builder
		for _, instr := range []int64{30_000, 400_000} {
			base := RunConfig{Instructions: instr, Engine: engine}
			fmt.Fprintf(&b, "# instructions=%d\n", instr)
			b.WriteString(RenderAll(SecurityAnalysis(base)))
			b.WriteString(RenderAll(HealthAdversary(base)))
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: Section 6 output differs from the golden\n--- got ---\n%s\n--- want ---\n%s", engine, got, want)
		}
	}
}

func TestSecurityAnalysisShowsAndClosesChannel(t *testing.T) {
	figs := SecurityAnalysis(RunConfig{Instructions: 30000})
	if len(figs) != 1 {
		t.Fatalf("figures = %d", len(figs))
	}
	f := figs[0]
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	shared, part := f.Series[0], f.Series[1]
	// advantage is column 2.
	if shared.Values[2] <= 0.1 {
		t.Fatalf("shared buffer advantage %v: side channel not observable", shared.Values[2])
	}
	if part.Values[2] >= shared.Values[2]/2 {
		t.Fatalf("partitioning did not close the channel: %v vs %v",
			part.Values[2], shared.Values[2])
	}
}

func TestPartitionCostSmall(t *testing.T) {
	figs := PartitionCost(context.Background(), RunConfig{Instructions: 30000})
	f := figs[0]
	shared, part := f.Series[0], f.Series[1]
	// The paper predicts a small performance overhead; assert the
	// partitioned design stays within 25% of the shared design on both
	// metrics.
	for i := range shared.Values {
		if part.Values[i] > shared.Values[i]*1.25 {
			t.Fatalf("partitioning cost too high on %s: %v vs %v",
				f.Labels[i], part.Values[i], shared.Values[i])
		}
	}
}
