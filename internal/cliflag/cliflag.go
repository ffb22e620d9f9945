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
// CLI's own flags to the scenario field it sets; the shared -mech,
// -engine and -workers join them. Without -scenario, every flag — an
// unset one at its default — builds a scenario of the given kind. With
// -scenario, each flag given on the command line copies its field over
// the loaded file: flag > file > default, the precedence the scenario
// schema documents, so `-scenario x.json -window 2000` really runs a
// 2000-tick window.
func (c *Common) Scenario(kind drstrange.Kind, fields map[string]drstrange.Option) drstrange.Scenario {
	fields["mech"] = drstrange.WithMechanism(*c.mech)
	fields["engine"] = drstrange.WithEngine(*c.engine)
	fields["workers"] = drstrange.WithWorkers(*c.workers)
	sc, visit := drstrange.NewScenario(kind), flag.VisitAll
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

// Execute validates and runs the scenario under an interrupt-aware
// context and prints the report (text, or JSON under -json), profiling
// the execution when -cpuprofile/-memprofile ask for it. Validation
// and execution errors exit 2 with "prog: error" on stderr (the CLI
// convention); an interrupt exits 130, the conventional SIGINT status,
// so scripts can tell the two apart.
func (c *Common) Execute(sc drstrange.Scenario) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stopProfiles := c.startProfiles()
	rep, err := drstrange.Run(ctx, sc)
	// The profiles must land before any exit path: os.Exit skips defers.
	stopProfiles()
	if err != nil {
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "%s: interrupted\n", c.prog)
			os.Exit(130)
		}
		c.Fatal(err)
	}
	if *c.jsonOut {
		data, err := rep.JSON()
		if err != nil {
			c.Fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	fmt.Print(rep.Render())
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

// JSONRequested reports whether -json was given, for CLIs with output
// modes (like rngbench's shard sweep) that have no JSON form and must
// reject the combination instead of silently printing text.
func (c *Common) JSONRequested() bool { return *c.jsonOut }

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
