package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// span is one coarse call into a layer: a case, run, chain, ladder
// step or partition cycle. Fine-grained calls under it (deliveries,
// view changes, requests) are aggregated into Children by layer, so
// memory stays bounded however many there are.
type span struct {
	ID       int                 `json:"id"`
	Parent   int                 `json:"parent"` // 0: root
	Name     string              `json:"name"`
	StartUs  int64               `json:"start_us"`
	EndUs    int64               `json:"end_us"`
	Children map[string]childAgg `json:"children,omitempty"`
	// SelfUs is the duration minus the time the children account for.
	SelfUs int64 `json:"self_us"`
}

// childAgg is the count and busy time of one child layer under a span.
type childAgg struct {
	Count int64 `json:"count"`
	Us    int64 `json:"us"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span now and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	return l.beginAt(name, parent, time.Now())
}

// beginAt opens a span that started at t, for calls whose start is
// only known once they have ended.
func (l *spanLog) beginAt(name string, parent int, t time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartUs: t.Sub(l.t0).Microseconds(),
	})
	return len(l.spans)
}

// end closes span id with its child aggregates and returns its
// duration.
func (l *spanLog) end(id int, children map[string]childAgg) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.EndUs = time.Since(l.t0).Microseconds()
	s.Children = children
	s.SelfUs = s.EndUs - s.StartUs
	for _, c := range children {
		s.SelfUs -= c.Us
	}
	return time.Duration(s.EndUs-s.StartUs) * time.Microsecond
}

// algChildren turns an algorithm-call delta into span children.
func algChildren(name string, d algSnap) map[string]childAgg {
	return map[string]childAgg{
		"alg." + name + ".deliver":    {d.deliverCalls, d.deliverNs / 1e3},
		"alg." + name + ".viewchange": {d.viewCalls, d.viewNs / 1e3},
		"alg." + name + ".poll":       {d.msgsSent, d.pollNs / 1e3},
	}
}

// write stores the spans as JSON under dir and returns the file path.
func (l *spanLog) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		CPUs       int    `json:"cpus"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Spans      []span `json:"spans"`
	}{workload, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), l.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
