package main

import (
	"fmt"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/campaign"
	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/metrics"
	"dynvote/internal/rng"
	"dynvote/internal/sim"
	"dynvote/internal/trace"
	"dynvote/internal/ykd"
)

// Workload sizes. The host this was tuned on has two CPUs, so every
// simulator workload runs on a one-worker budget.
var sweepRates = []float64{0, 1, 2, 4, 8, 12}

const (
	simProcs         = 64
	sweepChanges     = 6
	sweepRunsPerCell = 20

	// sim-soak mirrors quorumcheck's defaults: segment 12, rate 1.5,
	// a 4096-event trace ring sampled 1 in 8, the checker after every
	// round. One pass gives each algorithm soakChanges changes.
	soakSegment = 12
	soakRate    = 1.5
	soakChains  = 1
	soakChanges = 120
	soakTrace   = 4096
	soakSample  = 8
	// soakProbeEvery is how much of the program's work runs between
	// probes of the host: its slowdown drifts over tens of seconds, and
	// a probe costs about 10 ms.
	soakProbeEvery = 250 * time.Millisecond
	// soakReplaySegments is the length, per algorithm, of the stream
	// the traced run replays with the checker and the recorder toggled,
	// soakReplayReps times each.
	soakReplaySegments = 2
	soakReplayReps     = 3

	kiloProcs   = 1024
	kiloChanges = 2
	kiloRate    = 0
	// A pass is kiloPassRuns runs, about 3 s: run times vary by a third
	// with how the changes split the processes, and a pass averages
	// that out. The first pass always completes, so the traced and
	// untraced halves fingerprint the same kiloDigestRuns runs.
	kiloPassRuns   = 10
	kiloDigestRuns = 3
)

// Set-up builds each workload's stacks and warms them on a fixed
// stream, setupReps times; setup_s is the median. The stream does not
// follow -seed, so set-up does the same work on every run.
const (
	setupReps = 9
	setupSeed = 1
)

// Output fingerprints pinned for defaultSeed.
const (
	pinnedSweep = "3a3019d216690f07"
	pinnedSoak  = "704a8854cc4a368c"
	pinnedKilo  = "ec4795bf2428ce53"
)

// units collects one pass's units of work: a figure cell on sim-sweep,
// a cascading segment on sim-soak, a run on sim-kilo. Their times are
// scaled to the reference host speed (see hostspeed.go).
type units struct {
	latMs, perChangeMs []float64
	changes            int64
}

func (u *units) add(d time.Duration, changes int) {
	ms := float64(d) / float64(time.Millisecond)
	u.latMs = append(u.latMs, ms)
	if changes > 0 {
		u.perChangeMs = append(u.perChangeMs, ms/float64(changes))
	}
	u.changes += int64(changes)
}

// passes collects the figures of every pass of a run. A pass repeats
// the same work on a new stream. changes_per_s is the run's total
// changes over its total scaled time, and the unit latencies are
// Harrell–Davis quantiles of all the run's units: both average over
// every stream the run drew, as a unit's cost varies with its stream
// several times over.
type passes struct {
	all  units
	wall time.Duration
}

// add records a pass whose units u took wall in all, scaled.
func (p *passes) add(u *units, wall time.Duration) {
	p.all.latMs = append(p.all.latMs, u.latMs...)
	p.all.perChangeMs = append(p.all.perChangeMs, u.perChangeMs...)
	p.all.changes += u.changes
	p.wall += wall
}

// report writes the end-to-end metrics of a run.
func (p *passes) report(o *outcome) {
	o.e2e["changes_per_s"] = float64(p.all.changes) / p.wall.Seconds()
	o.e2e["outage_ms"] = hdQuantile(p.all.perChangeMs, 0.5)
	o.e2e["p50_ms"] = hdQuantile(p.all.latMs, 0.5)
	o.e2e["p99_ms"] = hdQuantile(p.all.latMs, 0.99)
	o.layers["latency_samples"] = float64(len(p.all.latMs))
}

// checkPin compares a fingerprint with its pinned value on the default
// seed.
func checkPin(o *outcome, opt options, what, got, pinned string) {
	o.digest = got
	if opt.seed == defaultSeed && got != pinned {
		o.fail("%s fingerprint %s, pinned %s", what, got, pinned)
	}
}

// simCounters copies the simulator's counters into the per-layer
// metrics.
func simCounters(reg *metrics.Registry, layers map[string]float64) {
	c := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	layers["sim.delivery_steps"] = c("sim_delivery_steps_total")
	layers["sim.delivered"] = c("sim_messages_delivered_total")
	layers["sim.dropped"] = c("sim_messages_dropped_total")
	if s := layers["sim.delivery_steps"]; s > 0 {
		layers["sim.drop_ratio"] = layers["sim.dropped"] / s
	}
	layers["sim.rounds"] = c("sim_rounds_total")
	layers["sim.settle_rounds"] = c("sim_settle_rounds_total")
	layers["sim.views_installed"] = c("sim_views_installed_total")
	layers["checker.assertions"] = c("sim_checker_assertions_total")
}

// instrument returns the factories a phase uses: the plain ones, or
// timing wrappers with their stats when spans are on.
func instrument(fs []core.Factory, spans *spanLog) ([]core.Factory, []*algStats) {
	if spans == nil {
		return fs, nil
	}
	out := make([]core.Factory, len(fs))
	st := make([]*algStats, len(fs))
	for i, f := range fs {
		st[i] = new(algStats)
		out[i] = timedFactory(f, st[i])
	}
	return out, st
}

// runSweep is sim-sweep: the fresh-start availability sweep of Figures
// 4-1..4-3, every algorithm at 64 processes and 6 changes over a rate
// ladder from 0, checker and recorder off, driven through
// experiment.RunCase. Each (algorithm, rate) cell is one unit of work.
func runSweep(opt options, spans *spanLog) *outcome {
	experiment.SetParallelism(1)
	o := newOutcome()
	plain := algset.All()
	fs, st := instrument(plain, spans)
	var reg *metrics.Registry
	if spans != nil {
		reg = metrics.NewRegistry()
	}

	o.e2e["setup_s"] = scaledMedian(setupReps, func() {
		for _, f := range plain {
			if _, err := experiment.RunCase(experiment.CaseSpec{
				Factory: f, Procs: simProcs, Changes: sweepChanges, MeanRounds: 4,
				Runs: 2, Mode: experiment.FreshStart, Seed: setupSeed,
			}); err != nil {
				o.fail("setup %s: %v", f.Name, err)
			}
		}
	})

	var ps passes
	var selfNs int64
	start := time.Now()
	clk := newHostClock()
	for pass := 0; pass == 0 || !timeUp(start, opt.seconds); pass++ {
		var u units
		var cells []any
		var passTime time.Duration
		for _, rate := range sweepRates {
			// The host is probed around each rate's cells, and their
			// times are scaled by its slowdown.
			cellNs := make([]time.Duration, 0, len(fs))
			for i, f := range fs {
				spec := experiment.CaseSpec{
					Factory: f, Procs: simProcs, Changes: sweepChanges, MeanRounds: rate,
					Runs: sweepRunsPerCell, Mode: experiment.FreshStart,
					Seed: seedFor(opt.seed, pass), Metrics: reg,
				}
				var before algSnap
				var id int
				if spans != nil {
					before = st[i].snap()
					id = spans.begin(fmt.Sprintf("case %s rate=%g pass=%d", f.Name, rate, pass), 0)
				}
				t := time.Now()
				res, err := experiment.RunCase(spec)
				d := time.Since(t)
				if spans != nil {
					delta := st[i].snap().sub(before)
					spans.end(id, algChildren(f.Name, delta))
					selfNs += int64(d) - delta.busyNs()
				}
				o.attempted += int64(spec.Runs)
				if err != nil {
					o.failed++
					o.fail("case %s rate %g: %v", f.Name, rate, err)
				}
				cellNs = append(cellNs, d)
				cells = append(cells, res)
			}
			wall, slow := clk.lap()
			for _, d := range cellNs {
				u.add(scaled(d, slow), sweepRunsPerCell*sweepChanges)
			}
			passTime += scaled(wall, slow)
		}
		ps.add(&u, passTime)
		if pass == 0 {
			checkPin(o, opt, "sweep table", fingerprint(cells...), pinnedSweep)
		}
	}
	ps.report(o)
	if spans != nil {
		for i, f := range plain {
			st[i].snap().report(o.layers, f.Name)
		}
		simCounters(reg, o.layers)
		o.layers["sim.self_s"] = float64(selfNs) / 1e9
	}
	return o
}

// runSoak is sim-soak: the cascading safety campaign as quorumcheck
// ships it, every algorithm through campaign.Run with the checker after
// every round and the trace recorder on. Each cascading segment (heal
// plus one run) is one unit of work, timed through the campaign's
// progress hook.
func runSoak(opt options, spans *spanLog) *outcome {
	experiment.SetParallelism(1)
	o := newOutcome()
	plain := algset.All()
	fs, st := instrument(plain, spans)

	o.e2e["setup_s"] = scaledMedian(setupReps, func() {
		for _, f := range plain {
			d := sim.NewDriver(f, soakConfig(true, true, nil, soakSegment), rng.New(setupSeed))
			d.Heal()
			if _, err := d.Run(); err != nil {
				o.fail("setup %s: %v", f.Name, err)
			}
		}
	})

	// The traced half leaves room for the replay below.
	budget := opt.seconds
	if spans != nil {
		budget /= 2
	}
	var ps passes
	type chainKey struct {
		alg   string
		chain int
	}
	type mark struct {
		elapsed  time.Duration
		injected int
		at       time.Time
		alg      algSnap
		// hook is how long the progress hook took after elapsed was
		// read; the chain's next elapsed includes it.
		hook time.Duration
	}
	algIndex := map[string]int{}
	for i, f := range plain {
		algIndex[f.Name] = i
	}
	start := time.Now()
	for pass := 0; pass == 0 || !timeUp(start, budget); pass++ {
		var u units
		var passTime time.Duration
		last := map[chainKey]mark{}
		// The host is probed in the progress hook once soakProbeEvery
		// has passed since the last probe, and the segments in between
		// are scaled by its slowdown over them.
		clk := newHostClock()
		type segment struct {
			d       time.Duration
			changes int
		}
		var pending []segment
		flush := func() {
			_, slow := clk.lap()
			for _, sg := range pending {
				u.add(scaled(sg.d, slow), sg.changes)
				passTime += scaled(sg.d, slow)
			}
			pending = pending[:0]
		}
		passSpan := 0
		if spans != nil {
			passSpan = spans.begin(fmt.Sprintf("campaign pass=%d", pass), 0)
		}
		cfg := campaign.Config{
			Factories: fs, Procs: simProcs, Changes: soakChanges, Segment: soakSegment,
			Rate: soakRate, Seed: seedFor(opt.seed, pass), Chains: soakChains,
			TraceRetain: soakTrace, ProgressEvery: time.Nanosecond,
			// The engine serializes hook calls, so last needs no lock.
			Progress: func(p campaign.ProgressUpdate) {
				k := chainKey{p.Algorithm, p.Chain}
				prev := last[k]
				now := mark{elapsed: p.Elapsed, injected: p.Injected, at: time.Now()}
				seg := p.Elapsed - prev.elapsed - prev.hook
				pending = append(pending, segment{seg, p.Injected - prev.injected})
				if time.Since(clk.start) >= soakProbeEvery {
					flush()
				}
				if spans != nil {
					i := algIndex[p.Algorithm]
					now.alg = st[i].snap()
					begin := now.at.Add(-seg)
					id := spans.beginAt(fmt.Sprintf("segment %s chain=%d", p.Algorithm, p.Chain), passSpan, begin)
					spans.end(id, algChildren(p.Algorithm, now.alg.sub(prev.alg)))
				}
				now.hook = time.Since(now.at)
				last[k] = now
			},
		}
		res, err := campaign.Run(cfg)
		if len(pending) > 0 {
			flush()
		}
		ps.add(&u, passTime)
		if spans != nil {
			spans.end(passSpan, nil)
		}
		if err != nil {
			o.fail("campaign pass %d: %v", pass, err)
		}
		var counters []any
		for _, a := range res.Algorithms {
			o.attempted += int64(a.Runs)
			counters = append(counters, fmt.Sprintf("%s changes=%d runs=%d formed=%d assertions=%d",
				a.Algorithm, a.Changes, a.Runs, a.Formed, a.Assertions))
			if spans != nil {
				for _, c := range a.Chains {
					o.layers["campaign."+a.Algorithm+".chain_s"] += c.Wall.Seconds()
				}
			}
		}
		o.failed += int64(len(res.Violations))
		if pass == 0 {
			checkPin(o, opt, "soak counters", fingerprint(counters...), pinnedSoak)
		}
	}
	ps.report(o)
	if spans != nil {
		soakReplay(o, opt, plain, spans)
	}
	return o
}

// soakConfig is the driver configuration of one campaign chain.
func soakConfig(check, traced bool, reg *metrics.Registry, changes int) sim.Config {
	cfg := sim.Config{
		Procs: simProcs, Changes: changes, MeanRounds: soakRate,
		CheckSafety: check, Metrics: reg,
	}
	if traced {
		cfg.Trace = trace.NewRecorder(soakTrace)
		cfg.TraceSampleEvery = soakSample
	}
	return cfg
}

// soakReplay splits a soak segment's time by replaying the same seeded
// stream through sim.NewDriver, the way a campaign chain runs: as
// shipped, without the recorder, and without either the recorder or the
// checker. Neither draws random numbers, so every variant sees the same
// stream and the differences are the recorder's and the checker's cost;
// the checker is measured with the recorder off, where the recorder's
// noise does not swamp it. The variants
// take turns soakReplayReps times and each reports its median, so a
// slow stretch of the host does not land on one variant only.
func soakReplay(o *outcome, opt options, plain []core.Factory, spans *spanLog) {
	// Without the recorder a replay takes a few milliseconds, so those
	// variants replay the stream loops times per turn and report the
	// time per replay.
	type variant struct {
		name          string
		check, traced bool
		loops         int
	}
	variants := []variant{{"shipped", true, true, 1}, {"no-trace", true, false, 10}, {"bare", false, false, 10}}
	walls := make([][]float64, len(variants))
	var bareAlg []float64
	regs := make([]*metrics.Registry, len(variants))
	for rep := 0; rep < soakReplayReps; rep++ {
		for v, vr := range variants {
			// Counters come from the first turn; the others repeat it.
			var reg *metrics.Registry
			if rep == 0 {
				regs[v] = metrics.NewRegistry()
				reg = regs[v]
			}
			vspan := spans.begin(fmt.Sprintf("replay %s rep=%d", vr.name, rep), 0)
			var wall time.Duration
			var alg int64
			for i, f := range plain {
				st := new(algStats)
				id := spans.begin(fmt.Sprintf("replay %s %s", vr.name, f.Name), vspan)
				for l := 0; l < vr.loops; l++ {
					r := reg
					if l > 0 {
						r = nil
					}
					d := sim.NewDriver(timedFactory(f, st), soakConfig(vr.check, vr.traced, r, soakSegment),
						rng.New(seedFor(opt.seed, 1000+i)))
					t := time.Now()
					for s := 0; s < soakReplaySegments; s++ {
						d.Heal()
						if _, err := d.Run(); err != nil {
							o.fail("replay %s %s: %v", vr.name, f.Name, err)
						}
					}
					wall += time.Since(t)
				}
				spans.end(id, algChildren(f.Name, st.snap()))
				alg += st.snap().busyNs()
				if v == 0 && rep == 0 {
					st.snap().report(o.layers, f.Name)
				}
			}
			spans.end(vspan, nil)
			walls[v] = append(walls[v], wall.Seconds()/float64(vr.loops))
			if v == len(variants)-1 {
				bareAlg = append(bareAlg, float64(alg)/1e9/float64(vr.loops))
			}
		}
	}
	for _, name := range []string{"sim_delivery_steps_total", "sim_rounds_total", "sim_views_installed_total"} {
		a := regs[0].Counter(name, "").Value()
		for v := 1; v < len(variants); v++ {
			if b := regs[v].Counter(name, "").Value(); b != a {
				o.fail("replay %s: %s=%d, shipped %d: checker or recorder changed the stream", variants[v].name, name, b, a)
			}
		}
	}
	simCounters(regs[0], o.layers)
	o.layers["trace.s"] = median(walls[0]) - median(walls[1])
	o.layers["checker.s"] = median(walls[1]) - median(walls[2])
	o.layers["sim.self_s"] = median(walls[2]) - median(bareAlg)
}

// kiloConfig is the sim-kilo driver configuration.
func kiloConfig(reg *metrics.Registry) sim.Config {
	return sim.Config{Procs: kiloProcs, Changes: kiloChanges, MeanRounds: kiloRate, Metrics: reg}
}

// runKilo is sim-kilo: fresh-start YKD at 1024 processes, one driver
// reset between runs as the sweep's workers do. Each run is one unit
// of work.
func runKilo(opt options, spans *spanLog) *outcome {
	o := newOutcome()
	plain := ykd.Factory(ykd.VariantYKD)
	f := plain
	st := new(algStats)
	var reg *metrics.Registry
	if spans != nil {
		f = timedFactory(plain, st)
		reg = metrics.NewRegistry()
	}
	src := func(run int) *rng.Source { return rng.New(seedFor(opt.seed, run)) }

	var d *sim.Driver
	o.e2e["setup_s"] = scaledMedian(3, func() {
		d = sim.NewDriver(f, kiloConfig(reg), src(0))
	})

	var ps passes
	var results []any
	var selfNs int64
	start := time.Now()
	clk := newHostClock()
	for run := 0; run == 0 || !timeUp(start, opt.seconds); {
		var u units
		var passTime time.Duration
		for end := run + kiloPassRuns; run < end; run++ {
			if run > 0 {
				d.Reset(src(run))
			}
			clk.lap()
			var before algSnap
			var id int
			if spans != nil {
				before = st.snap()
				id = spans.begin(fmt.Sprintf("run %d", run), 0)
			}
			t := time.Now()
			r, err := d.Run()
			el := time.Since(t)
			if spans != nil {
				delta := st.snap().sub(before)
				spans.end(id, algChildren(plain.Name, delta))
				selfNs += int64(el) - delta.busyNs()
			}
			o.attempted++
			if err != nil {
				o.failed++
				o.fail("run %d: %v", run, err)
			}
			// The host is probed around each run, and its time is
			// scaled by its slowdown.
			wall, slow := clk.lap()
			u.add(scaled(el, slow), r.ChangesInjected)
			passTime += scaled(wall, slow)
			if run < kiloDigestRuns {
				results = append(results, r)
			}
		}
		ps.add(&u, passTime)
	}
	checkPin(o, opt, "kilo results", fingerprint(results...), pinnedKilo)
	ps.report(o)
	if spans != nil {
		st.snap().report(o.layers, plain.Name)
		simCounters(reg, o.layers)
		o.layers["sim.self_s"] = float64(selfNs) / 1e9
	}
	return o
}
