package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Errorf("workloads %v, code runs %v", names, workloadOrder)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		better := map[bool]string{true: "lower", false: "higher"}[m.lower]
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != better {
			t.Errorf("end_to_end[%d] = %+v, code has %s %s %s", i, got, m.name, m.unit, better)
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, code has %d", len(b.PerLayer), len(layers))
	}
	for i, m := range layers {
		better := map[bool]string{true: "higher", false: "lower"}[m.higher]
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != better {
			t.Errorf("per_layer[%d] = %+v, code has %s %s %s", i, got, m.name, m.unit, better)
		}
	}
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks the result line: correct, every metric present, end-to-end
// metrics non-zero.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			// The ladder needs steps long enough to keep up with.
			seconds := "0.5"
			if w == "live-kv" {
				seconds = "4"
			}
			var out, errOut bytes.Buffer
			args := []string{"--workload", w, "--seed", "3", "--seconds", seconds, "--trace", trace, "--spans", t.TempDir()}
			if code := run(args, &out, &errOut); code != 0 {
				t.Errorf("%s trace=%s: exit %d\n%s", w, trace, code, errOut.String())
				continue
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d", w, trace, res.Correct, res.Attempted)
			}
			if trace == "0" {
				for _, m := range endToEnd {
					if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
						t.Errorf("%s: %s = %+v", w, m.name, v)
					}
				}
			} else if len(res.Metrics) != len(perLayer()) {
				t.Errorf("%s traced: %d metrics, want %d", w, len(res.Metrics), len(perLayer()))
			}
		}
	}
}
