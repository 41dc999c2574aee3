// Command perfbench is the repository benchmark. It runs its workloads
// — on the simulator and on a live TCP cluster — and prints every
// end-to-end metric by name and unit, followed by one JSON result line
// per workload. With -trace 1 it runs the workload twice on the same
// seed, untraced and traced, and prints the per-layer metrics instead,
// including the tracing overhead on each end-to-end metric.
//
// Every layer is measured from outside: by wrapping the algorithm
// factory and the gcs transport, by reading the counters the program
// already exports, and by on/off pairs over the same random stream.
// See README.md for the layer map and the attribution limits.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-sweep --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose output fingerprints are pinned.
const defaultSeed = 20000505

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units and whether lower is better (used for the overhead sign).
var endToEnd = []struct {
	name, unit string
	lower      bool
}{
	{"changes_per_s", "1/s", false},
	{"p50_ms", "ms", true},
	{"p99_ms", "ms", true},
	{"outage_ms", "ms", true},
	{"setup_s", "s", true},
	{"peak_rss_mb", "MB", true},
}

// outcome is what one workload phase measured.
type outcome struct {
	attempted, failed int64
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	e2e      map[string]float64
	layers   map[string]float64
	// digest summarises the deterministic outputs, so a traced phase
	// can be compared with the untraced one on the same seed.
	digest string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

// workload runs one phase for opt.seconds; a non-nil spans log
// switches on the layer instrumentation. The simulator workloads run one
// worker with GOMAXPROCS 1: the garbage collector then shares the
// worker's CPU instead of racing it for a second one, which on a shared
// host made run-to-run spread several times larger. The live workload
// uses every CPU.
type workload struct {
	run        func(opt options, spans *spanLog) *outcome
	gomaxprocs int
}

var workloads = map[string]workload{
	"sim-sweep": {runSweep, 1},
	"sim-soak":  {runSoak, 1},
	"sim-kilo":  {runKilo, 1},
	"live-kv":   {runLive, runtime.NumCPU()},
}

// workloadOrder is the benchmark: the workloads BENCHMARK.json lists
// and -workload all runs. sim-kilo runs only by name: on a shared
// two-CPU host its spread between runs exceeds the metrics' bounds
// (see README.md).
var workloadOrder = []string{"sim-sweep", "sim-soak", "live-kv"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	fs.StringVar(&opt.workload, "workload", "all", "workload: "+strings.Join(workloadOrder, ", ")+", sim-kilo, or all")
	fs.Int64Var(&opt.seed, "seed", defaultSeed, "workload seed (output fingerprints are pinned for the default)")
	fs.Float64Var(&opt.seconds, "seconds", 36, "measured duration of one run")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	fs.StringVar(&opt.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if opt.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = workloadOrder
	}
	code := 0
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
			return 2
		}
		o := opt
		o.workload = name
		if !runOne(o, stdout, stderr) {
			code = 1
		}
	}
	return code
}

// runOne runs a workload and prints its metrics and result line. It
// reports whether every output check passed.
func runOne(opt options, stdout, stderr io.Writer) bool {
	w := workloads[opt.workload]
	fn := w.run
	runtime.GOMAXPROCS(w.gomaxprocs)
	fmt.Fprintf(stdout, "perfbench %s seed=%d seconds=%g trace=%v cpus=%d gomaxprocs=%d go=%s\n",
		opt.workload, opt.seed, opt.seconds, opt.trace,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var res *outcome
	metrics := map[string]metric{}
	if !opt.trace {
		res = fn(opt, nil)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		for _, m := range endToEnd {
			metrics[m.name] = metric{res.e2e[m.name], m.unit}
		}
		fmt.Fprintf(stdout, "p50_ms and p99_ms from %.0f samples\n", res.layers["latency_samples"])
	} else {
		// Same seed, same budget: the untraced half gives the baseline
		// for the overhead, the traced half the per-layer split.
		half := opt
		half.seconds = opt.seconds / 2
		base := fn(half, nil)
		base.e2e["peak_rss_mb"] = peakRSSMB()
		spans := newSpanLog()
		res = fn(half, spans)
		res.e2e["peak_rss_mb"] = peakRSSMB()
		res.problems = append(res.problems, base.problems...)
		if base.digest != res.digest {
			res.fail("traced outputs differ from untraced: %s vs %s", res.digest, base.digest)
		}
		for _, m := range endToEnd {
			res.layers["overhead."+m.name] = overheadPct(base.e2e[m.name], res.e2e[m.name], m.lower)
		}
		for _, m := range perLayer() {
			metrics[m.name] = metric{res.layers[m.name], m.unit}
		}
		path, err := spans.write(opt.spansDir, opt.workload, opt.seed)
		if err != nil {
			res.fail("write spans: %v", err)
		} else {
			fmt.Fprintf(stdout, "spans written to %s\n", path)
		}
	}

	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench %s: CHECK FAILED: %s\n", opt.workload, p)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	fmt.Fprintln(stdout, string(line))
	return len(res.problems) == 0
}

// overheadPct is how much worse the traced value is than the untraced
// one, in percent of the untraced value.
func overheadPct(untraced, traced float64, lowerBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	d := traced - untraced
	if !lowerBetter {
		d = -d
	}
	return 100 * d / untraced
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// timeUp reports whether a phase that started at start has used its
// budget.
func timeUp(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
