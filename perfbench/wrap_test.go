package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dynvote/internal/algset"
	"dynvote/internal/campaign"
	"dynvote/internal/core"
	"dynvote/internal/experiment"
	"dynvote/internal/gcs"
	"dynvote/internal/proc"
	"dynvote/internal/view"
)

// TestTimedAlgKeepsOptionalInterfaces checks that the wrapper
// implements each optional interface exactly when the wrapped
// algorithm does.
func TestTimedAlgKeepsOptionalInterfaces(t *testing.T) {
	initial := view.View{Members: proc.Universe(4)}
	for _, f := range algset.All() {
		inner := f.New(0, initial)
		outer := timedFactory(f, new(algStats)).New(0, initial)
		check := func(name string, in, out bool) {
			if in != out {
				t.Errorf("%s: %s implemented by algorithm %v, by wrapper %v", f.Name, name, in, out)
			}
		}
		_, in := inner.(core.Resetter)
		_, out := outer.(core.Resetter)
		check("Resetter", in, out)
		_, in = inner.(core.AmbiguousReporter)
		_, out = outer.(core.AmbiguousReporter)
		check("AmbiguousReporter", in, out)
		_, in = inner.(core.PrimaryReporter)
		_, out = outer.(core.PrimaryReporter)
		check("PrimaryReporter", in, out)
		_, in = inner.(core.Snapshotter)
		_, out = outer.(core.Snapshotter)
		check("Snapshotter", in, out)
	}
}

// TestTracedFingerprintsMatch runs every algorithm plain and wrapped at
// one and two workers, fresh-start with the checker on and as a
// campaign, and requires identical results. The wrapper must also keep
// the fresh-start path on Reset: a lost Resetter would show as one
// factory.New per process per run.
func TestTracedFingerprintsMatch(t *testing.T) {
	defer experiment.SetParallelism(0)
	for _, workers := range []int{1, 2} {
		experiment.SetParallelism(workers)
		for _, f := range algset.All() {
			var news atomic.Int64
			counted := f
			counted.New = func(self proc.ID, initial view.View) core.Algorithm {
				news.Add(1)
				return f.New(self, initial)
			}
			st := new(algStats)
			spec := experiment.CaseSpec{
				Procs: 16, Changes: 6, MeanRounds: 2, Runs: 12,
				Mode: experiment.FreshStart, Seed: 7, CheckSafety: true,
			}
			spec.Factory = f
			plain, err := experiment.RunCase(spec)
			if err != nil {
				t.Fatalf("%s plain: %v", f.Name, err)
			}
			spec.Factory = timedFactory(counted, st)
			traced, err := experiment.RunCase(spec)
			if err != nil {
				t.Fatalf("%s traced: %v", f.Name, err)
			}
			if a, b := fingerprint(plain), fingerprint(traced); a != b {
				t.Errorf("%s at %d workers: traced case %s, plain %s", f.Name, workers, b, a)
			}
			if _, ok := f.New(0, view.View{Members: proc.Universe(16)}).(core.Resetter); ok {
				if max := int64(16 * workers); news.Load() > max {
					t.Errorf("%s at %d workers: %d instances built, want at most %d (Reset not forwarded)",
						f.Name, workers, news.Load(), max)
				}
			}
			if st.snap().deliverCalls == 0 && f.Codec != nil {
				t.Errorf("%s: wrapper timed no deliveries", f.Name)
			}
		}

		cfg := campaign.Config{
			Procs: 16, Changes: 48, Segment: 12, Rate: 1.5, Seed: 3, Chains: 2, TraceRetain: 64,
		}
		cfg.Factories = algset.All()
		plain, err := campaign.Run(cfg)
		if err != nil {
			t.Fatalf("campaign plain: %v", err)
		}
		cfg.Factories, _ = instrument(algset.All(), newSpanLog())
		traced, err := campaign.Run(cfg)
		if err != nil {
			t.Fatalf("campaign traced: %v", err)
		}
		for i, a := range plain.Algorithms {
			b := traced.Algorithms[i]
			if fmt.Sprint(a.Changes, a.Runs, a.Formed, a.Assertions) != fmt.Sprint(b.Changes, b.Runs, b.Formed, b.Assertions) {
				t.Errorf("%s campaign at %d workers: traced %+v, plain %+v", a.Algorithm, workers, b, a)
			}
		}
	}
}

// TestTimedTransportPassesFrames checks that frames cross the wrapper
// unchanged in both directions and that sends are counted.
func TestTimedTransportPassesFrames(t *testing.T) {
	mn := gcs.NewMemNetwork(2)
	w := &timedTransport{Transport: mn.Transport(0)}
	peer := mn.Transport(1)
	payloads := [][]byte{{1}, bytes.Repeat([]byte{0xab}, 300), []byte("frame")}
	for _, p := range payloads {
		if err := w.Send(1, p); err != nil {
			t.Fatal(err)
		}
		if err := peer.Send(0, p); err != nil {
			t.Fatal(err)
		}
	}
	recv := func(ch <-chan gcs.Frame, from proc.ID) {
		t.Helper()
		for _, p := range payloads {
			select {
			case f := <-ch:
				if f.From != from || !bytes.Equal(f.Data, p) {
					t.Fatalf("got frame %v from %v, want %v from %v", f.Data, f.From, p, from)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("frame not delivered")
			}
		}
	}
	recv(peer.Frames(), 0)
	recv(w.Frames(), 1)
	if got := w.sendCalls.Load(); got != int64(len(payloads)) {
		t.Errorf("sendCalls = %d, want %d", got, len(payloads))
	}
}
