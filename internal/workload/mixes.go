package workload

import (
	"fmt"

	"drstrange/internal/prng"
)

// Mix is one multiprogrammed workload: a list of non-RNG applications
// plus (optionally) one synthetic RNG benchmark with a required
// throughput. This mirrors the paper's Tables 2 and 3.
type Mix struct {
	Name string
	// Apps are the non-RNG application profile names, one per core.
	Apps []string
	// RNGMbps is the RNG benchmark's required throughput in Mb/s;
	// 0 means the mix has no RNG application.
	RNGMbps float64
}

// Cores returns the mix's core count.
func (m Mix) Cores() int {
	n := len(m.Apps)
	if m.RNGMbps > 0 {
		n++
	}
	return n
}

// TwoCoreMixes builds the paper's 43 dual-core workloads: every
// application paired with one RNG benchmark at rngMbps (Table 3's
// 2-core rows use 5120 and 640 Mb/s).
func TwoCoreMixes(rngMbps float64) []Mix {
	var out []Mix
	for _, p := range profiles {
		out = append(out, Mix{
			Name:    fmt.Sprintf("%s+rng%d", p.Name, int(rngMbps)),
			Apps:    []string{p.Name},
			RNGMbps: rngMbps,
		})
	}
	return out
}

// FigureTwoCoreMixes is TwoCoreMixes restricted to the 23 applications
// on the paper's per-app figure axes (in figure order).
func FigureTwoCoreMixes(rngMbps float64) []Mix {
	var out []Mix
	for _, name := range figureOrder {
		out = append(out, Mix{
			Name:    fmt.Sprintf("%s+rng%d", name, int(rngMbps)),
			Apps:    []string{name},
			RNGMbps: rngMbps,
		})
	}
	return out
}

// FourCoreGroupNames are the paper's four-core workload groups: three
// non-RNG applications by memory-intensity class plus one synthetic
// RNG benchmark (S).
var FourCoreGroupNames = []string{"LLLS", "LLHS", "LHHS", "HHHS"}

// FourCoreGroups builds the paper's 40 four-core workloads: for each
// group, 10 mixes of randomly selected applications from the group's
// classes plus a 5120 Mb/s RNG benchmark. Selection is deterministic
// (fixed seed).
func FourCoreGroups() map[string][]Mix {
	out := make(map[string][]Mix)
	rng := prng.NewXoshiro256(0xF04C)
	for _, group := range FourCoreGroupNames {
		var mixes []Mix
		for i := 0; i < 10; i++ {
			var apps []string
			for _, ch := range group {
				switch ch {
				case 'L':
					apps = append(apps, pick(rng, ClassL))
				case 'M':
					apps = append(apps, pick(rng, ClassM))
				case 'H':
					apps = append(apps, pick(rng, ClassH))
				case 'S':
					// RNG benchmark slot, appended via RNGMbps.
				}
			}
			mixes = append(mixes, Mix{
				Name:    fmt.Sprintf("%s-%d", group, i),
				Apps:    apps,
				RNGMbps: 5120,
			})
		}
		out[group] = mixes
	}
	return out
}

// MultiCoreGroups builds the paper's 8- and 16-core workload groups
// (and the same construction for 4 cores, used by Figures 7/8's right
// panels): for each class L/M/H, 10 mixes of cores-1 applications from
// that class plus a 5120 Mb/s RNG benchmark.
func MultiCoreGroups(cores int) map[string][]Mix {
	if cores < 2 {
		panic("workload: MultiCoreGroups needs at least 2 cores")
	}
	out := make(map[string][]Mix)
	rng := prng.NewXoshiro256(0xBEEF ^ uint64(cores))
	for _, class := range []Class{ClassL, ClassM, ClassH} {
		var mixes []Mix
		for i := 0; i < 10; i++ {
			var apps []string
			for j := 0; j < cores-1; j++ {
				apps = append(apps, pick(rng, class))
			}
			mixes = append(mixes, Mix{
				Name:    fmt.Sprintf("%s(%d)-%d", class, cores, i),
				Apps:    apps,
				RNGMbps: 5120,
			})
		}
		out[class.String()] = mixes
	}
	return out
}

func pick(rng *prng.Xoshiro256, c Class) string {
	names := ByClass(c)
	return names[rng.Intn(len(names))]
}
