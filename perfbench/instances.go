package main

import (
	_ "embed"
	"fmt"
	"math/rand"
	"strings"

	"mfsynth/internal/assays"
	"mfsynth/internal/baseline"
	"mfsynth/internal/core"
	"mfsynth/internal/graph"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
)

// instance is one synthesis request of a workload.
type instance struct {
	name  string
	assay *graph.Assay
	opts  core.Options
	// vsTmax is the paper's published vs_tmax of a Table 1 row (0 off
	// Table 1): both settings' largest actuation count must stay below it.
	vsTmax int
}

// paperVsTmax is Table 1's vs_tmax column, copied from the paper: the
// largest valve actuation count of the traditional dedicated-device design
// under the optimal binding, per benchmark and policy p1..p3.
var paperVsTmax = map[string][3]int{
	"PCR":                   {160, 80, 80},
	"MixingTree":            {280, 200, 160},
	"InterpolatingDilution": {360, 240, 200},
	"ExponentialDilution":   {320, 280, 240},
}

// table1Instance builds one Table 1 row the way the paper's evaluation
// does: the traditional design's binding sets the scheduling policy, and
// the synthesis runs single-threaded.
func table1Instance(name string, policy int, mode place.Mode) (instance, error) {
	c, err := assays.ByName(name)
	if err != nil {
		return instance{}, err
	}
	des, err := baseline.Traditional(c, policy, baseline.DefaultCost)
	if err != nil {
		return instance{}, fmt.Errorf("%s p%d: %w", name, policy, err)
	}
	return instance{
		name:  fmt.Sprintf("%s p%d", name, policy),
		assay: c.Assay,
		opts: core.Options{
			Policy:  schedule.Resources{Mixers: des.Mixers, Detectors: c.Detectors},
			Place:   place.Config{Grid: c.GridSize, Mode: mode, Workers: 1},
			Workers: 1,
		},
		vsTmax: paperVsTmax[name][policy-1],
	}, nil
}

// Random instances are RandomAssay draws with one detection, mapped on a
// 16×16 grid with one mixer per drawn volume and one detector. A key is
// (mix-op count, assay seed); the pools below are the keys a run may draw.
const (
	randomGrid    = 16
	randomMinMix  = 8
	randomMaxMix  = 12
	greedySeeds   = 4096 // greedy keys use assay seeds 1..greedySeeds-1
	raceMix       = 8    // portfolio races use 8-mix assays ...
	raceSeeds     = 512  // ... with assay seeds 1..raceSeeds-1
	backendGreedy = "greedy"
	backendRace   = "greedy,anneal"
)

type randomKey struct {
	backends string // backendGreedy or backendRace
	mix      int
	seed     int
}

// excludedText lists the pool keys whose synthesis degrades at the commit
// that defined this benchmark (see README.md and --screen): a transport
// left unrouted or an operation dropped. They are left out so that every
// drawn instance succeeds whatever the run seed.
//
//go:embed excluded.txt
var excludedText string

func parseExcluded() (map[randomKey]bool, error) {
	out := map[randomKey]bool{}
	for i, line := range strings.Split(excludedText, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var k randomKey
		if _, err := fmt.Sscanf(line, "%s %d %d", &k.backends, &k.mix, &k.seed); err != nil {
			return nil, fmt.Errorf("excluded.txt line %d: %v", i+1, err)
		}
		out[k] = true
	}
	return out, nil
}

// randomInstance builds the request for one pool key.
func randomInstance(k randomKey) instance {
	a := assays.Random(int64(k.seed), assays.RandomOptions{MixOps: k.mix, Detects: 1})
	mixers := map[int]int{}
	for _, id := range a.MixOps() {
		mixers[a.Volume(id)] = 1
	}
	opts := core.Options{
		Policy:  schedule.Resources{Mixers: mixers, Detectors: 1},
		Place:   place.Config{Grid: randomGrid, Mode: place.Greedy, Workers: 1},
		Workers: 1,
	}
	if k.backends == backendRace {
		opts.Place.Mode = place.RollingHorizon
		opts.Backends = []core.Backend{core.BackendGreedy, core.BackendAnneal}
	}
	return instance{name: fmt.Sprintf("random m%d s%d %s", k.mix, k.seed, k.backends), assay: a, opts: opts}
}

// keyDrawer hands out distinct, non-excluded pool keys in a seeded order.
type keyDrawer struct {
	rng      *rand.Rand
	excluded map[randomKey]bool
	used     map[randomKey]bool
}

func newKeyDrawer(rng *rand.Rand, excluded map[randomKey]bool) *keyDrawer {
	return &keyDrawer{rng: rng, excluded: excluded, used: map[randomKey]bool{}}
}

// draw returns the next key of the backends' pool with minMix to maxMix
// mixing operations (races always have raceMix).
func (d *keyDrawer) draw(backends string, minMix, maxMix int) randomKey {
	for {
		k := randomKey{backends: backendGreedy,
			mix:  minMix + d.rng.Intn(maxMix-minMix+1),
			seed: 1 + d.rng.Intn(greedySeeds-1)}
		if backends == backendRace {
			k = randomKey{backends: backendRace, mix: raceMix, seed: 1 + d.rng.Intn(raceSeeds-1)}
		}
		if !d.excluded[k] && !d.used[k] {
			d.used[k] = true
			return k
		}
	}
}

// poolKeys lists every key of the pools, for --screen.
func poolKeys() []randomKey {
	var keys []randomKey
	for mix := randomMinMix; mix <= randomMaxMix; mix++ {
		for s := 1; s < greedySeeds; s++ {
			keys = append(keys, randomKey{backendGreedy, mix, s})
		}
	}
	for s := 1; s < raceSeeds; s++ {
		keys = append(keys, randomKey{backendRace, raceMix, s})
	}
	return keys
}
