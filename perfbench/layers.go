package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"dynvote/internal/algset"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
	higher     bool
}

// perLayer lists every per-layer metric in print order. Metrics of a
// layer a workload does not touch read zero on that workload.
func perLayer() []layerMetric {
	var out []layerMetric
	add := func(name, unit string) { out = append(out, layerMetric{name: name, unit: unit}) }
	for _, f := range algset.All() {
		p := "alg." + f.Name + "."
		add(p+"deliver_calls", "count")
		add(p+"deliver_s", "s")
		add(p+"viewchange_calls", "count")
		add(p+"viewchange_s", "s")
		add(p+"poll_s", "s")
		add(p+"msgs_sent", "count")
	}
	for _, n := range []string{"delivery_steps", "delivered", "dropped"} {
		add("sim."+n, "count")
	}
	add("sim.drop_ratio", "ratio")
	for _, n := range []string{"rounds", "settle_rounds", "views_installed"} {
		add("sim."+n, "count")
	}
	add("sim.self_s", "s")
	add("checker.s", "s")
	add("checker.assertions", "count")
	add("trace.s", "s")
	for _, f := range algset.All() {
		add("campaign."+f.Name+".chain_s", "s")
	}
	out = append(out, layerMetric{name: "client.max_rps", unit: "1/s", higher: true})
	add("client.late_ms_p99", "ms")
	add("client.not_primary", "count")
	add("client.errors", "count")
	add("client.redials", "count")
	add("store.get_us", "us")
	add("store.set_us", "us")
	add("net_server_us", "us")
	add("transport.send_calls", "count")
	add("transport.send_us", "us")
	add("transport.frames_per_op", "ratio")
	add("transport.bytes_per_op", "B")
	add("transport.drops", "count")
	add("transport.dials", "count")
	add("gcs.views_installed", "count")
	add("gcs.view_install_ms", "ms")
	add("gcs.primary_regain_ms", "ms")
	add("gcs.heal_ms", "ms")
	add("gcs.stuck_heals", "count")
	out = append(out, layerMetric{name: "latency_samples", unit: "count", higher: true})
	for _, m := range endToEnd {
		add("overhead."+m.name, "%")
	}
	return out
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile returns the Harrell–Davis estimate of the q-quantile of xs
// (sorted in place): the mean of all the order statistics, weighted by
// the Beta(q(n+1), (1-q)(n+1)) distribution. Near the tail of a few
// hundred samples it moves much less from one sample to the next than
// the one or two order statistics quantile interpolates between.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(a, b, float64(i)/float64(n))
		est += (cur - prev) * xs[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaFraction(a, b, x) / a
	}
	return 1 - front*betaFraction(b, a, 1-x)/b
}

// betaFraction evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaFraction(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < 1e-13 {
			break
		}
	}
	return h
}

// mean returns the mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timeMedian runs fn reps times and returns the median wall time in
// seconds.
func timeMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		fn()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}

// fingerprint hashes the %v rendering of every value.
func fingerprint(vals ...any) string {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%v\n", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// seedFor derives an independent seed for part i of a run.
func seedFor(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	z *= 0x94d049bb133111eb
	z ^= z >> 29
	return int64(z >> 1)
}
