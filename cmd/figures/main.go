// Command figures regenerates the paper's tables and figures.
//
// Usage:
//
//	figures -list
//	figures -fig fig6            # one experiment
//	figures -fig all -instr 200000
//
// Output is an aligned text table per figure with the same series the
// paper plots, plus notes quoting the paper's reported values for
// comparison. Each experiment runs as a figure scenario through
// drstrange.Run, so its flags are checked like a scenario's fields.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"drstrange"
)

func main() {
	fig := flag.String("fig", "all", "experiment id (see -list) or 'all'")
	instr := flag.Int64("instr", 0, "per-core instruction budget (0 = 100000)")
	workers := flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
	engine := flag.String("engine", "", "simulation engine: event|ticked (default DRSTRANGE_ENGINE or event)")
	list := flag.Bool("list", false, "list experiment ids")
	csvDir := flag.String("csv", "", "also write one CSV per figure into this directory")
	flag.Parse()

	if *list {
		for _, id := range drstrange.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}

	// Ctrl-C cancels the in-flight experiment: the drivers stop
	// claiming new simulations and the tool exits without printing a
	// partial figure.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	ids := []string{*fig}
	if *fig == "all" {
		ids = drstrange.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := drstrange.Run(ctx, drstrange.Scenario{Kind: drstrange.KindFigure,
			Figure: id, Instructions: *instr, Engine: *engine, Workers: *workers})
		switch {
		case ctx.Err() != nil:
			fmt.Fprintln(os.Stderr, "figures: interrupted")
			os.Exit(130)
		case err != nil:
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(rep.Render())
		if *csvDir != "" {
			for _, f := range rep.Figures {
				if err := writeCSV(*csvDir, f); err != nil {
					fmt.Fprintf(os.Stderr, "figures: csv: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("-- %s done in %v --\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

// writeCSV exports a figure as <dir>/<id>.csv: a header row of labels,
// then one row per series.
func writeCSV(dir string, f drstrange.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("series")
	for _, l := range f.Labels {
		b.WriteString(",")
		b.WriteString(l)
	}
	b.WriteString("\n")
	for _, s := range f.Series {
		b.WriteString(strings.ReplaceAll(s.Name, ",", ";"))
		for _, v := range s.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteString("\n")
	}
	name := strings.ReplaceAll(f.ID, "/", "-") + ".csv"
	return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
}
