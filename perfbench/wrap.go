package main

import (
	"sync/atomic"
	"time"

	"dynvote/internal/core"
	"dynvote/internal/gcs"
	"dynvote/internal/proc"
	"dynvote/internal/view"
)

// algStats aggregates the calls into every instance of one algorithm.
// Counters are atomic because live nodes call their algorithms from
// their own goroutines while the benchmark reads span deltas.
type algStats struct {
	deliverCalls, deliverNs atomic.Int64
	viewCalls, viewNs       atomic.Int64
	pollNs, msgsSent        atomic.Int64
}

// algSnap is a point-in-time copy of an algStats.
type algSnap struct {
	deliverCalls, deliverNs, viewCalls, viewNs, pollNs, msgsSent int64
}

func (s *algStats) snap() algSnap {
	return algSnap{
		s.deliverCalls.Load(), s.deliverNs.Load(),
		s.viewCalls.Load(), s.viewNs.Load(),
		s.pollNs.Load(), s.msgsSent.Load(),
	}
}

func (a algSnap) sub(b algSnap) algSnap {
	return algSnap{
		a.deliverCalls - b.deliverCalls, a.deliverNs - b.deliverNs,
		a.viewCalls - b.viewCalls, a.viewNs - b.viewNs,
		a.pollNs - b.pollNs, a.msgsSent - b.msgsSent,
	}
}

// busyNs is the time spent inside the algorithm.
func (a algSnap) busyNs() int64 { return a.deliverNs + a.viewNs + a.pollNs }

// report writes the alg.<name>.* metrics.
func (a algSnap) report(layers map[string]float64, name string) {
	p := "alg." + name + "."
	layers[p+"deliver_calls"] += float64(a.deliverCalls)
	layers[p+"deliver_s"] += float64(a.deliverNs) / 1e9
	layers[p+"viewchange_calls"] += float64(a.viewCalls)
	layers[p+"viewchange_s"] += float64(a.viewNs) / 1e9
	layers[p+"poll_s"] += float64(a.pollNs) / 1e9
	layers[p+"msgs_sent"] += float64(a.msgsSent)
}

// timedFactory returns a factory whose instances forward every call to
// f's instances, timing ViewChange, Deliver and Poll into st.
func timedFactory(f core.Factory, st *algStats) core.Factory {
	inner := f.New
	f.New = func(self proc.ID, initial view.View) core.Algorithm {
		return wrapAlg(inner(self, initial), st)
	}
	return f
}

// timeEvery is the sampling period of the per-message calls: Deliver
// and Poll are counted every time but timed one call in timeEvery, and
// each timed call stands for timeEvery calls. Timing every call doubled
// the cost of a 64-process sweep.
const timeEvery = 8

// timedAlg times the core.Algorithm methods of one instance. n counts
// this instance's Deliver and Poll calls; only the goroutine driving
// the instance touches it.
type timedAlg struct {
	inner core.Algorithm
	st    *algStats
	n     uint32
}

// sample reports whether this call is one of the timed ones.
func (t *timedAlg) sample() bool {
	t.n++
	return t.n%timeEvery == 0
}

func (t *timedAlg) Name() string    { return t.inner.Name() }
func (t *timedAlg) InPrimary() bool { return t.inner.InPrimary() }

func (t *timedAlg) ViewChange(v view.View) {
	start := time.Now()
	t.inner.ViewChange(v)
	t.st.viewNs.Add(int64(time.Since(start)))
	t.st.viewCalls.Add(1)
}

func (t *timedAlg) Deliver(from proc.ID, m core.Message) {
	t.st.deliverCalls.Add(1)
	if !t.sample() {
		t.inner.Deliver(from, m)
		return
	}
	start := time.Now()
	t.inner.Deliver(from, m)
	t.st.deliverNs.Add(int64(time.Since(start)) * timeEvery)
}

func (t *timedAlg) Poll() []core.Message {
	if !t.sample() {
		msgs := t.inner.Poll()
		t.st.msgsSent.Add(int64(len(msgs)))
		return msgs
	}
	start := time.Now()
	msgs := t.inner.Poll()
	t.st.pollNs.Add(int64(time.Since(start)) * timeEvery)
	t.st.msgsSent.Add(int64(len(msgs)))
	return msgs
}

// wrapAlg returns a timed wrapper that implements each optional
// interface exactly when a does: a wrapper that hid core.Resetter would
// make Cluster.Reset rebuild instances, and one that hid
// core.PrimaryReporter would blind the safety checker.
func wrapAlg(a core.Algorithm, st *algStats) core.Algorithm {
	t := &timedAlg{inner: a, st: st}
	r, isR := a.(core.Resetter)
	am, isA := a.(core.AmbiguousReporter)
	p, isP := a.(core.PrimaryReporter)
	s, isS := a.(core.Snapshotter)
	type (
		R = core.Resetter
		A = core.AmbiguousReporter
		P = core.PrimaryReporter
		S = core.Snapshotter
	)
	switch {
	case isR && isA && isP && isS:
		return struct {
			*timedAlg
			R
			A
			P
			S
		}{t, r, am, p, s}
	case isR && isA && isP:
		return struct {
			*timedAlg
			R
			A
			P
		}{t, r, am, p}
	case isR && isA && isS:
		return struct {
			*timedAlg
			R
			A
			S
		}{t, r, am, s}
	case isR && isP && isS:
		return struct {
			*timedAlg
			R
			P
			S
		}{t, r, p, s}
	case isA && isP && isS:
		return struct {
			*timedAlg
			A
			P
			S
		}{t, am, p, s}
	case isR && isA:
		return struct {
			*timedAlg
			R
			A
		}{t, r, am}
	case isR && isP:
		return struct {
			*timedAlg
			R
			P
		}{t, r, p}
	case isR && isS:
		return struct {
			*timedAlg
			R
			S
		}{t, r, s}
	case isA && isP:
		return struct {
			*timedAlg
			A
			P
		}{t, am, p}
	case isA && isS:
		return struct {
			*timedAlg
			A
			S
		}{t, am, s}
	case isP && isS:
		return struct {
			*timedAlg
			P
			S
		}{t, p, s}
	case isR:
		return struct {
			*timedAlg
			R
		}{t, r}
	case isA:
		return struct {
			*timedAlg
			A
		}{t, am}
	case isP:
		return struct {
			*timedAlg
			P
		}{t, p}
	case isS:
		return struct {
			*timedAlg
			S
		}{t, s}
	default:
		return t
	}
}

// timedTransport is a pass-through gcs.Transport that counts and times
// Send calls.
type timedTransport struct {
	gcs.Transport
	sendCalls, sendNs atomic.Int64
}

func (t *timedTransport) Send(to proc.ID, data []byte) error {
	start := time.Now()
	err := t.Transport.Send(to, data)
	t.sendNs.Add(int64(time.Since(start)))
	t.sendCalls.Add(1)
	return err
}
