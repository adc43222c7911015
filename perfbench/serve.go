package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mfsynth/internal/core"
	"mfsynth/internal/obs"
	"mfsynth/internal/place"
	"mfsynth/internal/serve"
	"mfsynth/internal/verify"
)

// serve-open's traffic. The rate keeps the server's processor busy about
// a quarter of the time, low enough that the queues behind overlapping
// long requests stay modest and a slower host lengthens latencies about as
// much as it lengthens CPU time (README.md gives the rate sweep). Exactly
// serveRaceShare of the requests are greedy,anneal races and exactly
// serveDupShare repeat one of the serveRecent most recent keys, so they
// hit the cache or coalesce onto a running job. These shares are not taken
// from a record of real traffic, which the project does not have, and are
// unverified. They were chosen so: repeats of recent keys, not of any
// earlier key, give coalescing a chance at this rate; a repeat share well
// below one half puts the median latency inside the fresh requests' times
// rather than on the edge between cache hits and syntheses, where it would
// jump between the two; races are a small share because each is the
// longest request of the mix.
const (
	serveRate      = 20.0 // requests per second
	serveWorkers   = 2
	serveDupShare  = 0.3
	serveRaceShare = 0.03
	serveRecent    = 64
)

// serveTable1Rows are the Table 1 rows serve-open requests, with the greedy
// mapper: every row except InterpolatingDilution p2 and p3, which degrade.
var serveTable1Rows = []struct {
	name   string
	policy int
}{
	{"PCR", 1}, {"PCR", 2}, {"PCR", 3},
	{"MixingTree", 1}, {"MixingTree", 2}, {"MixingTree", 3},
	{"InterpolatingDilution", 1},
	{"ExponentialDilution", 1}, {"ExponentialDilution", 2}, {"ExponentialDilution", 3},
}

// servePlan is one run's traffic: the distinct request keys and, per
// request, when it is due and which key it sends.
type servePlan struct {
	keys []instance
	due  []time.Duration
	key  []int
}

// servePatternSeed fixes the arrival pattern: which class of request (and
// which Table 1 row, which race, which random-assay size) is sent at which
// instant. The pattern is the same in every run, so the long requests and
// their overlaps, which set the latency tail, repeat from run to run;
// --seed draws the greedy random assays that fill it and the keys the
// repeats pick.
const servePatternSeed = 1

// buildPlan makes the run's requests: arrivals evenly spaced at the rate
// in the fixed arrival pattern, fresh random keys drawn from the pools
// and repeats drawn from recent keys with a source seeded by seed.
func buildPlan(seed int64, rate, seconds float64) (*servePlan, error) {
	pattern := rand.New(rand.NewSource(servePatternSeed))
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * seconds)
	p := &servePlan{due: make([]time.Duration, n), key: make([]int, n)}
	for i := range p.due {
		p.due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}

	// Exact counts per class, in the pattern's order; the first request
	// is always fresh.
	rows := len(serveTable1Rows)
	dups := int(serveDupShare*float64(n) + 0.5)
	races := int(serveRaceShare*float64(n) + 0.5)
	if n-dups-races < rows+1 || races >= raceSeeds/2 {
		return nil, fmt.Errorf("%d requests are too few or too many for the traffic mix", n)
	}
	const (
		kindRandom = iota
		kindRace
		kindRow
		kindRepeat
	)
	kinds := make([]int, n)
	for i := range kinds {
		switch {
		case i < dups:
			kinds[i] = kindRepeat
		case i < dups+races:
			kinds[i] = kindRace
		case i < dups+races+rows:
			kinds[i] = kindRow
		}
	}
	pattern.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := range kinds {
		if kinds[i] != kindRepeat {
			kinds[0], kinds[i] = kinds[i], kinds[0]
			break
		}
	}
	rowOrder := pattern.Perm(rows)
	// The fresh greedy random keys come in equal counts per size, as in
	// sweep-heuristic, so that the traffic's make-up is alike across seeds.
	var mixes []int
	for _, k := range kinds {
		if k == kindRandom {
			mixes = append(mixes, randomMinMix+len(mixes)%(randomMaxMix-randomMinMix+1))
		}
	}
	pattern.Shuffle(len(mixes), func(i, j int) { mixes[i], mixes[j] = mixes[j], mixes[i] })

	excluded, err := parseExcluded()
	if err != nil {
		return nil, err
	}
	drawer := newKeyDrawer(rng, excluded)
	// The races' keys come from the pattern's source too: like the Table 1
	// rows, they are the same requests in every run.
	raceDrawer := newKeyDrawer(pattern, excluded)
	row := 0
	for i, k := range kinds {
		var in instance
		switch k {
		case kindRepeat:
			lo := max(0, len(p.keys)-serveRecent)
			p.key[i] = lo + rng.Intn(len(p.keys)-lo)
			continue
		case kindRow:
			r := serveTable1Rows[rowOrder[row]]
			row++
			if in, err = table1Instance(r.name, r.policy, place.Greedy); err != nil {
				return nil, err
			}
		case kindRace:
			in = randomInstance(raceDrawer.draw(backendRace, raceMix, raceMix))
		default:
			m := mixes[0]
			mixes = mixes[1:]
			in = randomInstance(drawer.draw(backendGreedy, m, m))
		}
		p.key[i] = len(p.keys)
		p.keys = append(p.keys, in)
	}
	return p, nil
}

// reqRec is one request's record. sentCPU is the process CPU clock when
// the request was sent.
type reqRec struct {
	due, sent, submitted time.Time
	sentCPU              float64
	outcome              serve.SubmitOutcome
	job                  *serve.Job
	err                  error
}

// doneClock records the process CPU clock at each job's completion. The
// server calls its record from the goroutine that finishes the job, right
// after the job is done: a worker, or Submit itself for a cache hit.
type doneClock struct {
	mu  sync.Mutex
	cpu map[string]float64
}

func (d *doneClock) record(v serve.JobView) {
	c := cpuSeconds()
	d.mu.Lock()
	d.cpu[v.ID] = c
	d.mu.Unlock()
}

func (d *doneClock) at(id string) (float64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.cpu[id]
	return c, ok
}

// runServe drives an in-process serve.Server open-loop: each request is
// sent when due, whatever the server's state, and timed from its send
// until its job is done, on the process CPU clock and on the wall clock.
func runServe(cfg runConfig) (*outcome, error) {
	// The server's two workers share one processor, so the process CPU
	// clock advances only while the server works and a request's latency
	// on it is the server's work while the request was outstanding: its
	// own synthesis plus the work it queued or time-sliced behind. That
	// is its latency on a core of its own, which does not count the time
	// the shared host withheld the core (see README.md).
	runtime.GOMAXPROCS(1)
	rate := serveRate
	if cfg.rate > 0 {
		rate = cfg.rate
	}
	type setupOut struct {
		plan *servePlan
		srv  *serve.Server
	}
	var spare []*serve.Server
	clock := &doneClock{cpu: map[string]float64{}}
	st, setupS, err := timedSetup(func() (setupOut, error) {
		plan, err := buildPlan(cfg.seed, rate, cfg.seconds)
		if err != nil {
			return setupOut{}, err
		}
		srv := serve.New(serve.Config{Workers: serveWorkers, QueueDepth: 4096, OnJobDone: clock.record})
		spare = append(spare, srv)
		return setupOut{plan, srv}, nil
	})
	for _, s := range spare {
		if s != st.srv {
			s.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	plan, srv := st.plan, st.srv
	out := &outcome{metrics: map[string]float64{}}
	if cfg.trace {
		out.tracer = newTracer()
	}

	recs := make([]reqRec, len(plan.due))
	runtime.GC() // the window starts from a collected heap, free of set-up garbage
	g0, c0 := readGC(), cpuSeconds()
	start := time.Now()
	for i := range recs {
		r := &recs[i]
		r.due = start.Add(plan.due[i])
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		in := plan.keys[plan.key[i]]
		r.sent, r.sentCPU = time.Now(), cpuSeconds()
		r.job, r.outcome, _, r.err = srv.Submit("perfbench", in.assay, in.opts, 0)
		r.submitted = time.Now()
	}
	// Completion times come from the jobs themselves (FinishedAt and the
	// done clock), so the requests are awaited only after the last is sent.
	timeout := time.After(120 * time.Second)
	for i := range recs {
		if recs[i].job == nil {
			continue
		}
		select {
		case <-recs[i].job.Done():
		case <-timeout:
			srv.Close()
			return nil, fmt.Errorf("requests still unfinished 120 s after the last was sent")
		}
	}
	wallS, cpuS, g1 := time.Since(start).Seconds(), cpuSeconds()-c0, readGC()
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	stats := srv.Stats()

	// Tally the requests and the serve steps.
	var lat, wallLat, queueMS, runMS, submitUS []float64
	var lateMax float64
	keyFP := make([]string, len(plan.keys))
	failed := make([]bool, len(recs))
	for i := range recs {
		r := &recs[i]
		out.attempted++
		lateMax = max(lateMax, r.sent.Sub(r.due).Seconds()*1000)
		submitUS = append(submitUS, r.submitted.Sub(r.sent).Seconds()*1e6)
		if r.job == nil || r.err != nil {
			failed[i] = true
			continue
		}
		v := r.job.View()
		doneCPU, ok := clock.at(v.ID)
		if v.State != serve.StateDone || v.Result == nil || v.Result.Degraded || !ok {
			failed[i] = true
			continue
		}
		lat = append(lat, (doneCPU-r.sentCPU)*1000)
		wallLat = append(wallLat, v.FinishedAt.Sub(r.due).Seconds()*1000)
		if r.outcome == serve.SubmitQueued && v.StartedAt != nil && v.FinishedAt != nil {
			queueMS = append(queueMS, v.StartedAt.Sub(v.QueuedAt).Seconds()*1000)
			runMS = append(runMS, v.FinishedAt.Sub(*v.StartedAt).Seconds()*1000)
		}
		k := plan.key[i]
		if keyFP[k] == "" {
			keyFP[k] = v.Result.Fingerprint
		} else if keyFP[k] != v.Result.Fingerprint {
			failed[i] = true
			out.problem(fmt.Sprintf("%s: request %d's fingerprint differs from an earlier request of the same key", plan.keys[k].name, i))
		}
	}
	if stats.Accepted != stats.Fresh+stats.Coalesced+stats.CacheHits {
		out.problem(fmt.Sprintf("serve stats: accepted %d != fresh %d + coalesced %d + cache hits %d",
			stats.Accepted, stats.Fresh, stats.Coalesced, stats.CacheHits))
	}
	if stats.Submitted != int64(len(recs)) || stats.Accepted != stats.Submitted || stats.Failed+stats.Cancelled != 0 {
		out.problem(fmt.Sprintf("serve stats: submitted %d accepted %d failed %d cancelled %d of %d requests",
			stats.Submitted, stats.Accepted, stats.Failed, stats.Cancelled, len(recs)))
	}

	// Reference syntheses, after the timed window: every key's served
	// result must equal an in-process synthesis of the same request.
	runtime.GOMAXPROCS(serveWorkers)
	layer := map[string][][]float64{}
	refBad := referenceCheck(plan, keyFP, out, layer)
	for i := range recs {
		if failed[i] || refBad[plan.key[i]] {
			out.failed++
		}
	}

	m := out.metrics
	m["setup_s"] = setupS
	m["pass_cpu_s"] = cpuS
	m["latency_ms_p50"] = quantile(lat, 0.50)
	m["latency_ms_p99"] = quantile(lat, 0.99)
	m["peak_rss_mb"] = peakRSSMB()
	if cfg.trace {
		for _, d := range perLayer {
			m[d.name] = sumOfMedians(layer[d.name])
		}
		m["serve.queue_ms_p50"] = quantile(queueMS, 0.50)
		m["serve.queue_ms_p99"] = quantile(queueMS, 0.99)
		m["serve.run_ms_p50"] = quantile(runMS, 0.50)
		m["serve.run_ms_p99"] = quantile(runMS, 0.99)
		m["serve.submit_us_p50"] = quantile(submitUS, 0.50)
		m["serve.wall_ms_p50"] = quantile(wallLat, 0.50)
		m["serve.wall_ms_p99"] = quantile(wallLat, 0.99)
		m["serve.fresh"] = float64(stats.Fresh)
		m["serve.coalesced"] = float64(stats.Coalesced)
		m["serve.cache_hits"] = float64(stats.CacheHits)
		m["gen.late_ms_max"] = lateMax
		m["gc.count"] = float64(g1.count - g0.count)
		m["gc.pause_ms"] = float64(g1.pauseNs-g0.pauseNs) / 1e6
		m["alloc_mb"] = float64(g1.alloc-g0.alloc) / 1e6
		m["pass_wall_s"] = wallS
		m["trace.pass_cpu_s"] = cpuS
		m["trace.latency_ms_p50"] = m["latency_ms_p50"]
		recordServeSpans(out.tracer, plan, recs)
	}
	return out, nil
}

// referenceCheck synthesizes every key in process, compares the
// fingerprint with the served one and audits the result; it adds the
// Table 1 keys' quality to the metrics and returns the keys that failed.
// A traced run synthesizes serially, single-backend keys through the
// decomposed pipeline, and samples the layers into layer.
func referenceCheck(plan *servePlan, keyFP []string, out *outcome, layer map[string][][]float64) []bool {
	n := len(plan.keys)
	results := make([]*core.Result, n)
	errs := make([]error, n)
	synth := func(k int) {
		in := plan.keys[k]
		if out.tracer == nil {
			results[k], errs[k] = core.SynthesizeCtx(context.Background(), in.assay, in.opts)
			return
		}
		sample := func(name string, v float64) {
			if layer[name] == nil {
				layer[name] = make([][]float64, n)
			}
			layer[name][k] = append(layer[name][k], v)
		}
		id := out.tracer.reserve()
		s0 := time.Now()
		if len(in.opts.Backends) == 0 {
			results[k], errs[k] = decomposed(in, out.tracer, id, sample)
		} else {
			opts := in.opts
			opts.Trace = obs.New()
			results[k], errs[k] = core.SynthesizeCtx(context.Background(), in.assay, opts)
			sampleCounters(opts.Trace, sample)
		}
		out.tracer.fill(id, "reference", 0, 0, s0, time.Now(), map[string]any{"name": in.name})
	}
	if out.tracer != nil {
		for k := range plan.keys {
			synth(k)
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < serveWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range next {
					synth(k)
				}
			}()
		}
		for k := range plan.keys {
			next <- k
		}
		close(next)
		wg.Wait()
	}

	bad := make([]bool, n)
	for k, in := range plan.keys {
		res, err := results[k], errs[k]
		switch {
		case err != nil:
			bad[k] = true
			out.problem(fmt.Sprintf("%s: reference synthesis failed: %v", in.name, err))
			continue
		case keyFP[k] != "" && keyFP[k] != verify.Fingerprint(res):
			bad[k] = true
			out.problem(fmt.Sprintf("%s: served fingerprint differs from the in-process synthesis", in.name))
		}
		if probs := checkResult(in, res); len(probs) > 0 {
			bad[k] = true
			out.problem(probs...)
		}
		if in.vsTmax > 0 {
			out.metrics["vs_max1_sum"] += float64(res.VsMax1)
			out.metrics["vs_max2_sum"] += float64(res.VsMax2)
			out.metrics["valves_sum"] += float64(res.UsedValves)
		}
	}
	return bad
}

// recordServeSpans turns the request records into spans: each request
// from due to done, with its submit call and, for a fresh job, its time
// queued and running.
func recordServeSpans(tr *tracer, plan *servePlan, recs []reqRec) {
	for i, r := range recs {
		if r.job == nil {
			continue
		}
		track := 1 + i%8
		v := r.job.View()
		if v.FinishedAt == nil {
			continue
		}
		id := tr.add("request", 0, track, r.due, *v.FinishedAt, map[string]any{
			"name": plan.keys[plan.key[i]].name, "job": v.ID, "outcome": int(r.outcome)})
		tr.add("submit", id, track, r.sent, r.submitted, nil)
		if r.outcome == serve.SubmitQueued && v.StartedAt != nil && v.FinishedAt != nil {
			tr.add("queue", id, track, v.QueuedAt, *v.StartedAt, nil)
			tr.add("run", id, track, *v.StartedAt, *v.FinishedAt, nil)
		}
	}
}
