package sim

import (
	"context"
	"testing"
)

func TestSecurityAnalysisShowsAndClosesChannel(t *testing.T) {
	figs := SecurityAnalysis(30000)
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
