// Package cliflag is the one flag surface shared by the scenario-driven
// CLIs (cmd/drstrange, cmd/rngbench). Both tools used to duplicate the
// design/mechanism/engine/workers parsing — and each carried its own
// copy of the valid-name error messages. Now the flags only collect
// values into a drstrange.Scenario, through one path whether or not a
// -scenario file is loaded; Scenario.Validate is the single source of
// the sorted valid-name errors, so the two CLIs (and the JSON path)
// cannot drift apart.
package cliflag

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"drstrange"
	"drstrange/internal/sim"
	"drstrange/internal/trng"
)

// Common holds the flag values every scenario CLI shares.
type Common struct {
	prog       string
	mech       *string
	engine     *string
	workers    *int
	scenario   *string
	jsonOut    *bool
	cpuprofile *string
	memprofile *string
}

// Register installs the shared flags on the default flag set:
// -mech, -engine, -workers, -scenario (run a JSON scenario file
// instead of the flag-built one, with the flags given on the command
// line overriding its fields), -json (emit the report as JSON), and
// the profiling pair -cpuprofile/-memprofile (pprof files covering the
// scenario's execution, so serve-path regressions are diagnosable
// without editing code).
func Register(prog string) *Common {
	return &Common{
		prog:       prog,
		mech:       flag.String("mech", "drange", "TRNG mechanism: "+strings.Join(trng.MechanismNames(), "|")),
		engine:     flag.String("engine", "", "simulation engine: event|ticked (default DRSTRANGE_ENGINE or event)"),
		workers:    flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)"),
		scenario:   flag.String("scenario", "", "run this JSON scenario file (any kind) instead of the flag-built scenario; flags given on the command line override its fields"),
		jsonOut:    flag.Bool("json", false, "emit the report as JSON instead of text"),
		cpuprofile: flag.String("cpuprofile", "", "write a CPU profile of the scenario's execution to this file"),
		memprofile: flag.String("memprofile", "", "write a heap profile taken after the scenario completes to this file"),
	}
}

// Scenario resolves which scenario to run. fields maps each of the
// CLI's own flags to a function that sets its scenario field; the
// shared -mech, -engine and -workers join them. Without -scenario,
// every flag — an unset one at its default — builds a scenario of the
// given kind. With -scenario, each flag given on the command line
// copies its field over the loaded file: flag > file > default, the
// precedence the scenario schema documents, so `-scenario x.json
// -window 2000` really runs a 2000-tick window.
func (c *Common) Scenario(kind drstrange.Kind, fields map[string]func(*drstrange.Scenario)) drstrange.Scenario {
	fields["mech"] = func(s *drstrange.Scenario) { s.Mechanism = *c.mech }
	fields["engine"] = func(s *drstrange.Scenario) { s.Engine = *c.engine }
	fields["workers"] = func(s *drstrange.Scenario) { s.Workers = *c.workers }
	sc, visit := drstrange.Scenario{Kind: kind}, flag.VisitAll
	if *c.scenario != "" {
		var err error
		if sc, err = drstrange.LoadScenario(*c.scenario); err != nil {
			c.Fatal(err)
		}
		visit = flag.Visit
	}
	visit(func(f *flag.Flag) {
		if set, ok := fields[f.Name]; ok {
			set(&sc)
		}
	})
	return sc
}

// Execute validates the scenarios, then runs them in turn under one
// interrupt-aware context and prints each report as it completes
// (text, or JSON under -json). -cpuprofile/-memprofile profile the
// whole run. With a non-nil label, each text report is printed under a
// "==== label(scenario) ====" header: the form of a sweep (rngbench
// -shards 1,4,16), whose reports would not compose into one JSON
// document, so -json is refused for more than one scenario. Validation
// and execution errors exit 2 with "prog: error" on stderr (the CLI
// convention); an interrupt exits 130, the conventional SIGINT status,
// so scripts can tell the two apart.
func (c *Common) Execute(label func(drstrange.Scenario) string, scs ...drstrange.Scenario) {
	if *c.jsonOut && len(scs) > 1 {
		c.Fatal(fmt.Errorf("-json needs a single scenario; this sweep runs %d (one per invocation)", len(scs)))
	}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			c.Fatal(err)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stopProfiles := c.startProfiles()
	err := c.runAll(ctx, label, scs)
	// The profiles must land before any exit path: os.Exit skips defers.
	stopProfiles()
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "%s: interrupted\n", c.prog)
			os.Exit(130)
		}
		c.Fatal(err)
	}
}

// runAll runs the scenarios in turn and prints each report.
func (c *Common) runAll(ctx context.Context, label func(drstrange.Scenario) string, scs []drstrange.Scenario) error {
	for _, sc := range scs {
		rep, err := drstrange.Run(ctx, sc)
		if err != nil {
			return err
		}
		if *c.jsonOut {
			data, err := rep.JSON()
			if err != nil {
				return err
			}
			os.Stdout.Write(data)
			continue
		}
		if label != nil {
			fmt.Printf("==== %s ====\n", label(sc))
		}
		fmt.Print(rep.Render())
	}
	return nil
}

// startProfiles starts the requested pprof captures and returns the
// function that finalizes them: it stops the CPU profile and writes the
// heap profile (after a GC, so the heap reflects live memory — the
// serve path's O(outstanding) claim — rather than garbage). Both files
// are created up front, so an unwritable path fails before the
// scenario burns minutes of simulation.
func (c *Common) startProfiles() (stop func()) {
	var cpuFile, memFile *os.File
	if *c.cpuprofile != "" {
		f, err := os.Create(*c.cpuprofile)
		if err != nil {
			c.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			c.Fatal(err)
		}
		cpuFile = f
	}
	if *c.memprofile != "" {
		f, err := os.Create(*c.memprofile)
		if err != nil {
			c.Fatal(err)
		}
		memFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				c.Fatal(err)
			}
		}
		if memFile != nil {
			runtime.GC()
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				c.Fatal(err)
			}
			if err := memFile.Close(); err != nil {
				c.Fatal(err)
			}
		}
	}
}

// Fatal prints "prog: err" and exits 2 (the flag-error convention both
// CLIs have always used).
func (c *Common) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
	os.Exit(2)
}

// SplitList splits a comma-separated flag value, dropping empty
// elements.
func SplitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// DesignNamesFlagHelp is the shared help-text fragment listing the
// accepted design names.
func DesignNamesFlagHelp() string { return strings.Join(sim.DesignNames(), "|") }
