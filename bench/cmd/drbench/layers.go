package main

import (
	"path"
	"strings"
)

// layers lists the profile-fold layers in report order. Each source file
// belongs to exactly one of them (layerOf); a trace emits one
// layer.<L>.self_share metric per entry.
var layers = []string{
	"api",
	"sim.engine", "sim.eventq", "sim.router", "sim.serve", "sim.drivers", "sim.snapshot",
	"memctrl", "dram", "cpu", "core", "workload", "prng", "metrics", "energy",
	"trng",
	"runtime", "stdlib",
}

// simFiles assigns the files of internal/sim, the one package split
// across several layers. A file missing here has no layer, which the
// coverage test reports.
var simFiles = map[string]string{
	"system.go": "sim.engine", "engine.go": "sim.engine", "run.go": "sim.engine",
	"pool.go": "sim.engine", "memo.go": "sim.engine", "env.go": "sim.engine",
	"eventq.go": "sim.eventq",
	"router.go": "sim.router", "class.go": "sim.router",
	"serve.go":   "sim.serve",
	"figures.go": "sim.drivers", "figure.go": "sim.drivers", "ablation.go": "sim.drivers",
	"security.go": "sim.drivers", "adversary.go": "sim.drivers", "design.go": "sim.drivers",
	"interactive.go": "sim.drivers",
	"snapshot.go":    "sim.snapshot",
	"health.go":      "trng",
}

// modelPackages are the internal packages that are a layer of their own.
var modelPackages = map[string]bool{
	"memctrl": true, "dram": true, "cpu": true, "core": true, "workload": true,
	"prng": true, "metrics": true, "energy": true, "trng": true,
}

// frontEnds are module directories outside the simulator proper: the
// CLIs, examples, lint suite, and this benchmark. Their frames fold into
// api, the layer a caller enters through; only drbench's own loop ever
// shows up in a drbench profile.
var frontEnds = []string{"cmd/", "examples/", "internal/cliflag/", "internal/lint/", "bench/"}

// layerOf maps a source file, as a -trimpath build records it
// ("drstrange/internal/sim/system.go", "runtime/proc.go"), to its layer,
// or "" when the module file has none.
func layerOf(file string) string {
	rel, inModule := strings.CutPrefix(file, "drstrange/")
	if !inModule {
		if dir := path.Dir(file); dir == "runtime" || strings.HasPrefix(dir, "internal/runtime/") {
			return "runtime"
		}
		return "stdlib"
	}
	if !strings.Contains(rel, "/") {
		return "api"
	}
	for _, p := range frontEnds {
		if strings.HasPrefix(rel, p) {
			return "api"
		}
	}
	dir, name := path.Split(rel)
	pkg, ok := strings.CutPrefix(strings.TrimSuffix(dir, "/"), "internal/")
	if !ok || strings.Contains(pkg, "/") {
		return ""
	}
	switch {
	case pkg == "sim":
		return simFiles[name]
	case name == "clone.go" && modelPackages[pkg]:
		return "sim.snapshot"
	case modelPackages[pkg]:
		return pkg
	}
	return ""
}
