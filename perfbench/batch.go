package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"mfsynth/internal/assays"
	"mfsynth/internal/core"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/schedule"
	"mfsynth/internal/verify"
)

// A run times its set-up in setupBlocks blocks; each block repeats the
// set-up until it has used setupBlockCPU CPU seconds, so that a set-up of
// well under a millisecond is timed as one longer interval. setup_s is the
// median over the blocks of the block's CPU seconds per set-up.
const (
	setupBlocks   = 7
	setupBlockCPU = 0.025
)

// sweepPerSize is how many random instances of each size sweep-heuristic
// adds to the twelve Table 1 rows. Equal counts per size keep the pass's
// make-up, and so its time, alike across seeds.
const sweepPerSize = 8

// runTable1ILP is the paper's method, the rolling-horizon ILP mapper, on
// the Table 1 rows whose pass fits a run. The rows do not depend on the
// seed.
func runTable1ILP(cfg runConfig) (*outcome, error) {
	rows := []struct {
		name   string
		policy int
	}{
		{"PCR", 1}, {"PCR", 2}, {"PCR", 3},
		{"MixingTree", 1}, {"MixingTree", 2},
		{"InterpolatingDilution", 1},
	}
	return runBatch(cfg, func() ([]instance, error) {
		var insts []instance
		for _, r := range rows {
			in, err := table1Instance(r.name, r.policy, place.RollingHorizon)
			if err != nil {
				return nil, err
			}
			insts = append(insts, in)
		}
		return insts, nil
	})
}

// runSweep is the greedy mapper on all twelve Table 1 rows plus seeded
// random assays.
func runSweep(cfg runConfig) (*outcome, error) {
	return runBatch(cfg, func() ([]instance, error) {
		var insts []instance
		for _, name := range assays.Names() {
			for p := 1; p <= 3; p++ {
				in, err := table1Instance(name, p, place.Greedy)
				if err != nil {
					return nil, err
				}
				insts = append(insts, in)
			}
		}
		excluded, err := parseExcluded()
		if err != nil {
			return nil, err
		}
		d := newKeyDrawer(rand.New(rand.NewSource(cfg.seed)), excluded)
		for mix := randomMinMix; mix <= randomMaxMix; mix++ {
			for i := 0; i < sweepPerSize; i++ {
				insts = append(insts, randomInstance(d.draw(backendGreedy, mix, mix)))
			}
		}
		return insts, nil
	})
}

// timedSetup runs setup in blocks and returns the last instance set and
// the median CPU seconds of one set-up.
func timedSetup[T any](setup func() (T, error)) (T, float64, error) {
	var out T
	var perSetup []float64
	for blk := 0; blk < setupBlocks; blk++ {
		c0 := cpuSeconds()
		for reps := 1; ; reps++ {
			v, err := setup()
			if err != nil {
				return out, 0, err
			}
			out = v
			if used := cpuSeconds() - c0; used >= setupBlockCPU {
				perSetup = append(perSetup, used/float64(reps))
				break
			}
		}
	}
	return out, median(perSetup), nil
}

// batch holds one batch run's per-instance samples.
type batch struct {
	insts []instance
	out   *outcome
	fps   []string // fingerprint of each instance's first result
	// cpu and wall hold each instance's per-pass synthesis seconds.
	cpu, wall [][]float64
	// layer holds the traced passes' per-instance samples of each
	// per-layer metric.
	layer map[string][][]float64
}

// runBatch synthesizes the instance set once per pass, on one thread, for
// as many whole passes as fit in the run's time (at least one); a traced
// run follows every pass with a traced pass through the decomposed
// pipeline.
func runBatch(cfg runConfig, setup func() ([]instance, error)) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	insts, setupS, err := timedSetup(setup)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	n := len(insts)
	b := &batch{insts: insts, out: &outcome{metrics: map[string]float64{}},
		fps: make([]string, n), cpu: make([][]float64, n), wall: make([][]float64, n),
		layer: map[string][][]float64{}}
	if cfg.trace {
		b.out.tracer = newTracer()
	}
	var gcCount, gcPause, allocMB []float64
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		// Every pass starts from a collected heap, so that one pass's
		// garbage neither slows the next nor raises the peak RSS of a run
		// that fits more passes.
		runtime.GC()
		g0 := readGC()
		b.pass(pass)
		g1 := readGC()
		gcCount = append(gcCount, float64(g1.count-g0.count))
		gcPause = append(gcPause, float64(g1.pauseNs-g0.pauseNs)/1e6)
		allocMB = append(allocMB, float64(g1.alloc-g0.alloc)/1e6)
		if cfg.trace {
			runtime.GC()
			b.tracedPass(pass)
		}
		// Another pass only if it is expected to end within the run: a
		// table1-ilp pass takes most of a run, so a run is one pass.
		if elapsed := time.Since(start); elapsed+time.Since(passStart) > time.Duration(cfg.seconds*float64(time.Second)) {
			break
		}
	}

	m := b.out.metrics
	m["setup_s"] = setupS
	m["pass_cpu_s"] = sumOfMedians(b.cpu)
	m["latency_ms_p50"] = b.rowLatencyMS(0.50)
	m["latency_ms_p99"] = b.rowLatencyMS(0.99)
	m["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		for _, d := range perLayer {
			m[d.name] = sumOfMedians(b.layer[d.name])
		}
		m["gc.count"] = median(gcCount)
		m["gc.pause_ms"] = median(gcPause)
		m["alloc_mb"] = median(allocMB)
		m["pass_wall_s"] = sumOfMedians(b.wall)
	}
	return b.out, nil
}

// rowLatencyMS is the q-quantile, over the Table 1 rows, of each row's
// median CPU milliseconds over the passes: one synthesis request's latency
// on a core of its own. The rows are the same in every run, so the
// latencies do not move with the seed's random instances.
func (b *batch) rowLatencyMS(q float64) float64 {
	var rows []float64
	for i, in := range b.insts {
		if in.vsTmax > 0 {
			rows = append(rows, median(b.cpu[i])*1000)
		}
	}
	return quantile(rows, q)
}

// pass synthesizes every instance once through core.SynthesizeCtx, the
// timed operation of the batch workloads, and checks each result.
func (b *batch) pass(pass int) {
	for i, in := range b.insts {
		m := startMeter()
		res, err := core.SynthesizeCtx(context.Background(), in.assay, in.opts)
		c, w, _ := m.stop()
		b.cpu[i] = append(b.cpu[i], c)
		b.wall[i] = append(b.wall[i], w)
		b.out.attempted++
		if b.judge(i, pass, res, err) && pass == 0 && in.vsTmax > 0 {
			b.out.metrics["vs_max1_sum"] += float64(res.VsMax1)
			b.out.metrics["vs_max2_sum"] += float64(res.VsMax2)
			b.out.metrics["valves_sum"] += float64(res.UsedValves)
		}
	}
}

// judge checks one result of pass pass. It counts an error or a degraded
// result as a failed operation, and reports whether the result exists.
// The first pass runs the full audit; later passes must reproduce the
// first pass's fingerprint.
func (b *batch) judge(i, pass int, res *core.Result, err error) bool {
	in := b.insts[i]
	if err != nil {
		b.out.failed++
		if pass == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", in.name, err)
		}
		return false
	}
	fp := verify.Fingerprint(res)
	var probs []string
	if pass == 0 {
		b.fps[i] = fp
		probs = checkResult(in, res)
	} else if fp != b.fps[i] {
		probs = append(probs, fmt.Sprintf("%s: fingerprint of pass %d differs from pass 0", in.name, pass))
	}
	switch {
	case res.Degraded():
		b.out.failed++
		if pass == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s counted failed: %s\n", in.name, res.Degradation)
		}
	case len(probs) > 0:
		b.out.failed++
		b.out.problem(probs...)
	}
	return true
}

// tracedPass runs every instance through the pipeline's public layers one
// by one — schedule.ListCtx, place.MapCtx, core.Complete — with the
// program's obs registry attached, timing each call from outside. The
// result must reproduce core.SynthesizeCtx's fingerprint.
func (b *batch) tracedPass(pass int) {
	tr := b.out.tracer
	passID := tr.reserve()
	passStart := time.Now()
	for i, in := range b.insts {
		sample := func(name string, v float64) {
			if b.layer[name] == nil {
				b.layer[name] = make([][]float64, len(b.insts))
			}
			b.layer[name][i] = append(b.layer[name][i], v)
		}
		b.out.attempted++
		instID := tr.reserve()
		instStart := time.Now()
		total := startMeter()
		res, err := decomposed(in, tr, instID, sample)
		c, _, _ := total.stop()
		sample("trace.pass_cpu_s", c)
		tr.fill(instID, "instance", passID, 0, instStart, time.Now(), map[string]any{"name": in.name})
		switch {
		case err != nil:
			b.out.failed++
		case res.Degraded():
			b.out.failed++
		case verify.Fingerprint(res) != b.fps[i]:
			b.out.failed++
			b.out.problem(fmt.Sprintf("%s: decomposed pipeline fingerprint differs from core.SynthesizeCtx", in.name))
		}
	}
	tr.fill(passID, "pass", 0, 0, passStart, time.Now(), map[string]any{"pass": pass})
}

// decomposed is core.SynthesizeCtx's nominal path spelled out as calls
// into the layers, each bracketed by a span under parent and a meter; the
// layers' seconds, allocations and obs counters go to sample.
func decomposed(in instance, tr *tracer, parent int, sample func(string, float64)) (*core.Result, error) {
	ctx := context.Background()
	ot := obs.New()
	call := func(name string, f func() error) error {
		s0 := time.Now()
		m := startMeter()
		err := f()
		c, _, al := m.stop()
		tr.add(name, parent, 0, s0, time.Now(), map[string]any{"cpu_s": c, "alloc_mb": al})
		layer := map[string]string{"schedule.ListCtx": "schedule", "place.MapCtx": "place", "core.Complete": "route"}[name]
		sample(layer+".s", c)
		sample(layer+".alloc_mb", al)
		return err
	}
	var sched *schedule.Result
	err := call("schedule.ListCtx", func() (err error) {
		sp := ot.Start("schedule")
		defer sp.End()
		sched, err = schedule.ListCtx(ctx, in.assay, schedule.Options{
			TransportDelay: in.opts.TransportDelay, Resources: in.opts.Policy, Obs: sp})
		return err
	})
	if err != nil {
		return nil, err
	}
	var mp *place.Mapping
	err = call("place.MapCtx", func() (err error) {
		cfg := in.opts.Place
		cfg.Obs = ot.Start("place")
		defer cfg.Obs.End()
		mp, err = place.MapCtx(ctx, sched, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var res *core.Result
	err = call("core.Complete", func() (err error) {
		opts := in.opts
		opts.Trace = ot
		res, err = core.Complete(ctx, in.assay, sched, mp, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	st := mp.Stats
	sample("place.ilp_solves", float64(st.ILPSolves))
	sample("place.repairs", float64(st.Repairs))
	sample("place.no_incumbent", float64(st.NoIncumbent))
	sample("place.ilp_nodes", float64(st.ILPNodes))
	sampleCounters(ot, sample)
	return res, nil
}

// sampleCounters samples the obs registry's counters of one synthesis.
func sampleCounters(ot *obs.Trace, sample func(string, float64)) {
	var counters map[string]int64
	if snap := ot.Metrics().Snapshot(); snap != nil {
		counters = snap.Counters
	}
	for name, counter := range counterMetrics {
		sample(name, float64(counters[counter]))
	}
}

// counterMetrics maps per-layer metrics onto the obs registry's counters.
var counterMetrics = map[string]string{
	"place.greedy_runs":  "place_greedy_runs_total",
	"lp.pivots":          "milp_simplex_pivots_total",
	"lp.solves":          "milp_lp_solves_total",
	"milp.nodes":         "milp_nodes_total",
	"milp.warm_resolves": "milp_warm_resolves_total",
	"milp.incumbents":    "milp_incumbents_total",
	"route.pops":         "route_dijkstra_pops_total",
	"route.ripups":       "route_ripups_total",
	"route.failed":       "route_failed_total",
}
