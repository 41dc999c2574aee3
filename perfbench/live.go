package main

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"time"

	"dynvote/internal/gcs"
	"dynvote/internal/loadgen"
	"dynvote/internal/metrics"
	"dynvote/internal/proc"
	"dynvote/internal/register"
	"dynvote/internal/ykd"
)

// live-kv settings. The latency limit applies to p99 at every ladder
// step; the reference rate is where p50_ms and p99_ms are reported.
const (
	liveReplicas  = 3
	liveConns     = 2
	liveKeys      = 64
	liveHeartbeat = 20 * time.Millisecond
	liveLimitMs   = 20.0
	liveRefRate   = 20000.0
	// liveKeepUp is the share of a step's offered rate that must be
	// answered within the step for its backlog to count as steady.
	liveKeepUp = 0.97
	// Shares of the run's seconds: the reference phase and the
	// partition cycles fill the run; the traced run's ladder adds one
	// step share per rate on top.
	liveRefShare  = 0.5
	livePartShare = 0.45
	liveStepShare = 0.02
	liveWindows   = 15
	// liveStepWindows splits each ladder step for its p99.
	liveStepWindows = 5
	liveSettle      = 300 * time.Millisecond
	// liveStoreCalls direct Get and Set calls per replica time the
	// store in the traced run.
	liveStoreCalls = 2000
	liveWait       = 5 * time.Second
	// Each cut and each heal holds liveDwell once the cluster has
	// absorbed it. A heal that has not let the isolated replica write
	// within liveStall is stuck (see README.md) and is recovered up to
	// liveHealTries times.
	liveDwell     = 100 * time.Millisecond
	liveStall     = 250 * time.Millisecond
	liveHealTries = 5
)

// liveLadder is the rate ladder client.max_rps is read from, in
// requests per second, in steps 8% apart. Its top stays below the rates
// where the two-CPU hosts this was tuned on saturate (700k-1.1M req/s):
// there the nodes' heartbeats starve, views change under load and
// writes are refused.
var liveLadder = ladder(200000, 700000, 1.08)

// windowedP99 is the median of the p99s of n windows of consecutive
// samples.
func windowedP99(latMs []float64, n int) float64 {
	var p99s []float64
	w := len(latMs) / n
	for i := 0; i < n; i++ {
		p99s = append(p99s, quantile(append([]float64(nil), latMs[i*w:(i+1)*w]...), 0.99))
	}
	return median(p99s)
}

// ladder returns geometric steps from lo up to hi.
func ladder(lo, hi, factor float64) []float64 {
	var out []float64
	for r := lo; r <= hi; r *= factor {
		out = append(out, float64(int(r/100)*100))
	}
	return out
}

// cluster is a 3-replica register store over localhost TCP, with a
// loadgen server in front of each replica.
type cluster struct {
	tcp     []*gcs.TCPTransport
	wrapped []*timedTransport
	stores  []*register.Store
	servers []*loadgen.Server
	reg     *metrics.Registry
	tl      *gcs.Timeline
}

// startCluster opens the transports and replicas. A non-nil alg times
// the algorithm into it, wraps every transport and records the nodes'
// timeline.
func startCluster(alg *algStats) (*cluster, error) {
	c := &cluster{}
	factory := ykd.Factory(ykd.VariantYKD)
	if alg != nil {
		factory = timedFactory(factory, alg)
		c.reg = metrics.NewRegistry()
		c.tl = gcs.NewTimeline()
	}
	addrs := map[proc.ID]string{}
	for i := 0; i < liveReplicas; i++ {
		tr, err := gcs.NewTCPTransport(gcs.TCPConfig{
			ID: proc.ID(i), OwnAddr: "127.0.0.1:0",
			HeartbeatEvery: liveHeartbeat, Metrics: c.reg,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.tcp = append(c.tcp, tr)
		addrs[proc.ID(i)] = tr.Addr()
	}
	for _, tr := range c.tcp {
		tr.SetPeers(addrs)
	}
	for i, tr := range c.tcp {
		var t gcs.Transport = tr
		cfg := register.Config{ID: proc.ID(i), N: liveReplicas, Algorithm: factory}
		if alg != nil {
			w := &timedTransport{Transport: tr}
			c.wrapped = append(c.wrapped, w)
			t = w
			cfg.OnEvent = c.tl.Hook(proc.ID(i))
		}
		cfg.Transport = t
		st, err := register.Open(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.stores = append(c.stores, st)
		srv, err := loadgen.NewServer(st, "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
	}
	return c, nil
}

// close stops servers, replicas and transports, waiting for each.
func (c *cluster) close() {
	for _, s := range c.servers {
		_ = s.Close()
	}
	for _, st := range c.stores {
		st.Close()
	}
	for _, tr := range c.tcp {
		_ = tr.Close()
	}
}

// waitFor polls cond until it holds or liveWait passes.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(liveWait)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// fullPrimary reports whether every replica is in the primary with all
// three in its view.
func (c *cluster) fullPrimary() bool {
	for _, st := range c.stores {
		if !st.InPrimary() || st.Node().CurrentView().Size() != liveReplicas {
			return false
		}
	}
	return true
}

// formed reports whether every replica is in the primary in a view
// with all three that a leader proposed, past the optimistic initial
// view every node starts in.
func (c *cluster) formed() bool {
	for _, st := range c.stores {
		if st.Node().CurrentView().ID == 0 {
			return false
		}
	}
	return c.fullPrimary()
}

// isolate cuts replica iso off from the other two.
func (c *cluster) isolate(iso int) {
	var others []proc.ID
	for i, tr := range c.tcp {
		if i != iso {
			others = append(others, proc.ID(i))
			tr.Block(proc.ID(iso))
		}
	}
	c.tcp[iso].Block(others...)
}

// splitAll cuts every replica off from every other.
func (c *cluster) splitAll() {
	for i, tr := range c.tcp {
		var others []proc.ID
		for j := range c.tcp {
			if j != i {
				others = append(others, proc.ID(j))
			}
		}
		tr.Block(others...)
	}
}

// alone reports whether every replica is in a view of its own.
func (c *cluster) alone() bool {
	for _, st := range c.stores {
		if st.Node().CurrentView().Size() != 1 {
			return false
		}
	}
	return true
}

func (c *cluster) heal() {
	for _, tr := range c.tcp {
		tr.Block()
	}
}

// cycle records one partition cycle: the isolated replica and when it
// was cut off.
type cycle struct {
	iso     int
	blockAt time.Time
}

// probe is a loadgen client the partition cycles write through; n
// numbers its writes.
type probe struct {
	cl *loadgen.Client
	n  int
}

// write writes through p until a write is acknowledged while inView
// holds, and returns when that happened.
func (p *probe) write(inView func() bool, wait time.Duration) (time.Time, error) {
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		if inView() {
			p.n++
			notPrimary, err := p.cl.Set("probe", "p"+strconv.Itoa(p.n))
			if err != nil {
				return time.Time{}, err
			}
			if !notPrimary && inView() {
				return time.Now(), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Time{}, fmt.Errorf("no write acknowledged within %v", wait)
}

// converged waits until every replica holds the same contents.
func (c *cluster) converged() error {
	return waitFor("replicas to converge", func() bool {
		first := c.stores[0].Snapshot()
		for _, st := range c.stores[1:] {
			if !reflect.DeepEqual(first, st.Snapshot()) {
				return false
			}
		}
		return true
	})
}

// runLive is live-kv: a 3-replica YKD register store over localhost
// TCP, loaded open loop by one process over two pipelined connections.
// The run holds the reference rate, steps through a rate ladder, then
// cycles partitions that isolate each replica in turn.
func runLive(opt options, spans *spanLog) *outcome {
	o := newOutcome()
	var alg *algStats
	if spans != nil {
		alg = new(algStats)
	}

	var c *cluster
	var setupErr error
	o.e2e["setup_s"] = timeMedian(3, func() {
		if c != nil {
			c.close()
		}
		c, setupErr = startCluster(alg)
		if setupErr == nil {
			setupErr = waitFor("a full primary view", c.formed)
		}
	})
	if setupErr != nil {
		o.fail("setup: %v", setupErr)
		if c != nil {
			c.close()
		}
		return o
	}
	defer c.close()

	addrs := make([]string, liveConns)
	for i := range addrs {
		addrs[i] = c.servers[i%liveReplicas].Addr()
	}
	g := newGenerator(addrs, liveConns, opt.seed, liveKeys, liveLimitMs)
	defer g.close()
	var tcp0 metrics.Snapshot
	if c.reg != nil {
		tcp0 = c.reg.Snapshot()
	}
	var alg0 algSnap
	if alg != nil {
		alg0 = alg.snap()
	}
	var all phaseStats
	account := func(name string, p *phaseStats) {
		all.merge(p, false)
		if p.issued != p.answered()+p.errs {
			o.fail("%s: issued %d != ok %d + not-found %d + not-primary %d + errors %d",
				name, p.issued, p.ok, p.notFound, p.notPrimary, p.errs)
		}
		if p.badSeq > 0 {
			o.fail("%s: %d responses out of order", name, p.badSeq)
		}
		if p.badValue > 0 {
			o.fail("%s: %d reads returned a value no Set issued for that key", name, p.badValue)
		}
	}
	phase := func(name string, rate float64, dur time.Duration) *phaseStats {
		var id int
		var before algSnap
		if spans != nil {
			id = spans.begin(name, 0)
			before = alg.snap()
		}
		p := g.run(rate, dur)
		if spans != nil {
			ch := algChildren("ykd", alg.snap().sub(before))
			ch["client.batch"] = childAgg{p.batches, p.batchNs / 1e3}
			spans.end(id, ch)
		}
		account(name, p)
		return p
	}

	// Reference phase first, on a cluster no overload has disturbed.
	// p99 is the median of the p99s of liveWindows windows of
	// consecutive requests, so one stall of the shared host moves it by
	// one window at most.
	ref := phase("reference", liveRefRate, time.Duration(opt.seconds*liveRefShare*float64(time.Second)))
	o.e2e["p99_ms"] = windowedP99(ref.latMs, liveWindows)
	o.e2e["p50_ms"] = quantile(ref.latMs, 0.5)
	o.layers["latency_samples"] = float64(len(ref.latMs))
	o.layers["client.late_ms_p99"] = quantile(ref.lateMs, 0.99)

	// The traced run also climbs the rate ladder: client.max_rps is the
	// rate answered at the highest step whose p99 (windowed, as above)
	// meets the limit while keeping up with the schedule (no growing
	// backlog). The climb stops after two failing steps in a row, so one
	// stall does not end it.
	if opt.trace {
		step := time.Duration(opt.seconds * liveStepShare * float64(time.Second))
		misses := 0
		for _, rate := range liveLadder {
			p := phase(fmt.Sprintf("ladder %.0f/s", rate), rate, step)
			served := float64(p.answered()) / p.wall.Seconds()
			if windowedP99(p.latMs, liveStepWindows) <= liveLimitMs && served >= liveKeepUp*rate && p.answered() == p.issued {
				o.layers["client.max_rps"] = served
				misses = 0
			} else if misses++; misses == 2 {
				break
			}
		}
		// Let the overloaded steps' backlog drain before the cuts.
		time.Sleep(liveSettle)
	}

	if spans != nil {
		c.storeTimes(o, ref)
	}

	// Partition cycles: isolate each replica in turn; the outage is the
	// time from the cut until a replica on the majority side
	// acknowledges a write in its new view.
	var cycles []cycle
	var outages, heals []float64
	// cycleMs holds outage plus heal time of the cycles whose heal did
	// not stall.
	var cycleMs []float64
	probes := make([]*probe, liveReplicas)
	for i := range probes {
		cl, err := loadgen.DialClient(c.servers[i].Addr())
		if err != nil {
			o.fail("probe dial: %v", err)
			return o
		}
		defer cl.Close()
		probes[i] = &probe{cl: cl}
	}
	pstart := time.Now()
	budget := opt.seconds * livePartShare
	stuck := 0
	for n := 0; n == 0 || !timeUp(pstart, budget); n++ {
		iso := n % liveReplicas
		maj := (iso + 1) % liveReplicas
		var id int
		if spans != nil {
			id = spans.begin(fmt.Sprintf("partition cycle %d isolate %d", n, iso), 0)
		}
		majority := func() bool {
			v := c.stores[maj].Node().CurrentView()
			return v.Size() == liveReplicas-1 && !v.Members.Contains(proc.ID(iso))
		}
		blockAt := time.Now()
		c.isolate(iso)
		cycles = append(cycles, cycle{iso, blockAt})
		ackAt, err := probes[maj].write(majority, liveWait)
		if err != nil {
			o.fail("cycle %d: majority side: %v", n, err)
			break
		}
		outages = append(outages, float64(ackAt.Sub(blockAt))/1e6)
		time.Sleep(liveDwell)
		healAt := time.Now()
		c.heal()
		// A heal that stalls is counted, and recovered by splitting
		// every replica off and healing again.
		try := 0
		for ; ; try++ {
			ackAt, err = probes[iso].write(c.fullPrimary, liveStall)
			if err == nil || try == liveHealTries {
				break
			}
			stuck++
			c.splitAll()
			if err = waitFor("every replica alone", c.alone); err != nil {
				break
			}
			c.heal()
		}
		if err != nil {
			o.fail("cycle %d: heal: %v", n, err)
			break
		}
		heals = append(heals, float64(ackAt.Sub(healAt))/1e6)
		if try == 0 {
			cycleMs = append(cycleMs, outages[n]+heals[n])
		}
		if spans != nil {
			spans.end(id, nil)
		}
		time.Sleep(liveDwell)
	}
	// Each cycle is two connectivity changes, a cut and a heal; the
	// dwells between them are not counted. A heal waits for the next
	// heartbeat, so heal times cluster at one and two heartbeats and a
	// median flips between the clusters; the mean does not.
	if len(cycleMs) == 0 {
		o.fail("no partition cycle healed without stalling")
	} else {
		o.e2e["changes_per_s"] = 2 / (mean(cycleMs) / 1e3)
	}
	o.e2e["outage_ms"] = median(outages)
	o.layers["gcs.heal_ms"] = median(heals)
	o.layers["gcs.stuck_heals"] = float64(stuck)

	if err := c.converged(); err != nil {
		o.fail("program defect: %v after the final heal", err)
	}

	o.attempted = all.issued
	o.failed = all.errs + all.notPrimary + ref.overLimit
	o.layers["client.not_primary"] = float64(all.notPrimary)
	o.layers["client.errors"] = float64(all.errs)
	o.layers["client.redials"] = float64(all.redials)
	if spans != nil {
		alg.snap().sub(alg0).report(o.layers, "ykd")
		c.transportLayers(o, tcp0, all.answered())
		c.nodeLayers(o, cycles)
	}
	return o
}

// storeTimes times direct Get and Set calls on the replicas the
// clients use, and attributes the rest of the reference p50 to the
// network and the server queue.
func (c *cluster) storeTimes(o *outcome, ref *phaseStats) {
	var gets, sets []float64
	for i := 0; i < liveConns; i++ {
		st := c.stores[i]
		for n := 0; n < liveStoreCalls; n++ {
			t := time.Now()
			st.Get("k0000")
			gets = append(gets, float64(time.Since(t))/1e3)
			t = time.Now()
			if err := st.Set("store-probe", "s"+strconv.Itoa(n)); err != nil {
				o.fail("direct set on replica %d: %v", i, err)
				return
			}
			sets = append(sets, float64(time.Since(t))/1e3)
		}
	}
	get, set := median(gets), median(sets)
	o.layers["store.get_us"] = get
	o.layers["store.set_us"] = set
	o.layers["net_server_us"] = quantile(ref.latMs, 0.5)*1e3 - (get+set)/2
}

// transportLayers reports the wrapped sends and the TCP counters since
// the measured phase began, per answered client request.
func (c *cluster) transportLayers(o *outcome, before metrics.Snapshot, ops int64) {
	var calls, ns int64
	for _, w := range c.wrapped {
		calls += w.sendCalls.Load()
		ns += w.sendNs.Load()
	}
	o.layers["transport.send_calls"] = float64(calls)
	if calls > 0 {
		o.layers["transport.send_us"] = float64(ns) / float64(calls) / 1e3
	}
	d := c.reg.Snapshot().Delta(before).Counters
	if ops > 0 {
		o.layers["transport.frames_per_op"] = float64(d["gcs_tcp_frames_out_total"]) / float64(ops)
		o.layers["transport.bytes_per_op"] = float64(d["gcs_tcp_bytes_out_total"]) / float64(ops)
	}
	o.layers["transport.drops"] = float64(d["gcs_tcp_inbox_drops_total"] + d["gcs_tcp_sendq_drops_total"] + d["gcs_tcp_unreachable_drops_total"])
	o.layers["transport.dials"] = float64(d["gcs_tcp_dials_total"])
}

// nodeLayers reads the gcs nodes' timeline: views installed, the gap
// from a leader proposing a view to each member installing it, and the
// time from each cut until a majority-side node that lost the primary
// regains it.
func (c *cluster) nodeLayers(o *outcome, cycles []cycle) {
	events := c.tl.Events()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At.Before(events[j].At) })
	proposed := map[int64]time.Time{}
	var installs []float64
	views := 0
	for _, e := range events {
		switch e.Kind {
		case gcs.EventViewProposed:
			proposed[e.ViewID] = e.At
		case gcs.EventView:
			views++
			if at, ok := proposed[e.ViewID]; ok {
				installs = append(installs, float64(e.At.Sub(at))/1e6)
			}
		}
	}
	var regains []float64
	for _, cy := range cycles {
		lost := map[proc.ID]bool{}
		for _, e := range events {
			if e.Kind != gcs.EventPrimary || !e.At.After(cy.blockAt) || int(e.Node) == cy.iso {
				continue
			}
			if !e.Primary {
				lost[e.Node] = true
			} else if lost[e.Node] {
				regains = append(regains, float64(e.At.Sub(cy.blockAt))/1e6)
				break
			}
		}
	}
	o.layers["gcs.views_installed"] = float64(views)
	o.layers["gcs.view_install_ms"] = median(installs)
	o.layers["gcs.primary_regain_ms"] = median(regains)
}
