// Example scenario demonstrates the public scenario API: one
// JSON-serializable description of a whole experiment, executed with
// drstrange.Run.
//
// The example writes a serve scenario as a struct literal, shows the
// JSON it serializes to (the same schema the scenarios/ files and the
// CLIs' -scenario flag consume), runs it, and prints the report as
// text plus a JSON excerpt — the one format downstream tooling
// consumes.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"drstrange"
)

func main() {
	// A declarative experiment: tail latency of DR-STRaNGe's buffering
	// vs the RNG-oblivious baseline at two offered loads, under bursty
	// arrivals. Unset knobs (mechanism, clients, engine, ...) take the
	// documented defaults / DRSTRANGE_* environment values.
	warmup := int64(5000)
	sc := drstrange.Scenario{
		Version:     drstrange.SchemaVersion,
		Kind:        drstrange.KindServe,
		Name:        "quickstart-sweep",
		Designs:     []string{"oblivious", "drstrange"},
		Loads:       []float64{320, 1280},
		Arrival:     "bursty",
		Burstiness:  0.25,
		WarmupTicks: &warmup,
		WindowTicks: 20000,
	}

	// The scenario IS the file format: this JSON can be saved and
	// replayed with `drstrange -scenario file.json` (or rngbench).
	data, err := sc.MarshalIndentJSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario:\n%s\n", data)

	// Run validates and executes; cancelling the context aborts the
	// whole sweep mid-flight (Ctrl-C handling in the CLIs rides on
	// exactly this).
	rep, err := drstrange.Run(context.Background(), sc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Render())

	// The report serializes too — the machine-readable form the CLIs
	// emit under -json. Print just the figure IDs as a taste.
	var ids []string
	for _, f := range rep.Figures {
		ids = append(ids, f.ID)
	}
	excerpt, _ := json.Marshal(ids)
	fmt.Printf("\nreport figures (from the JSON form): %s\n", excerpt)
}
