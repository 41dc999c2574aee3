package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynvote/internal/loadgen"
)

// Response statuses of the loadgen protocol, as internal/loadgen's
// proto.go numbers them; that package does not export them.
const (
	statusOK byte = iota
	statusNotFound
	statusNotPrimary
)

// opMix decides each request's operation and key from the seed alone:
// half writes, the rest reads, over liveKeys keys — loadgen's default
// mix. Request id's write stores the value "v<id>".
type opMix struct {
	seed uint64
	keys int
}

func (m opMix) op(id int64) (write bool, key string) {
	z := m.seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return z&1 == 0, fmt.Sprintf("k%04d", (z>>8)%uint64(m.keys))
}

// phaseStats is what one open-loop phase measured, merged over its
// connections.
type phaseStats struct {
	latMs                                           []float64 // per answered request, from when it was due
	lateMs                                          []float64 // per issued request, how late it was issued
	issued, ok, notFound, notPrimary, errs, redials int64
	// overLimit counts answers that came later than the latency limit.
	overLimit int64
	// badValue counts reads that returned a value no Set issued for
	// that key; badSeq responses out of issue order.
	badValue, badSeq int64
	batches          int64
	batchNs          int64
	wall             time.Duration
}

// merge adds o's counts to p; with samples set it also appends o's
// latency samples.
func (p *phaseStats) merge(o *phaseStats, samples bool) {
	if samples {
		p.latMs = append(p.latMs, o.latMs...)
		p.lateMs = append(p.lateMs, o.lateMs...)
	}
	p.issued += o.issued
	p.ok += o.ok
	p.notFound += o.notFound
	p.notPrimary += o.notPrimary
	p.errs += o.errs
	p.redials += o.redials
	p.overLimit += o.overLimit
	p.badValue += o.badValue
	p.badSeq += o.badSeq
	p.batches += o.batches
	p.batchNs += o.batchNs
}

// answered is the number of requests that got a response.
func (p *phaseStats) answered() int64 { return p.ok + p.notFound + p.notPrimary }

// generator is an open-loop load generator over loadgen.Client
// connections. Requests follow a fixed schedule — request i of a phase
// at rate r is due at i/r seconds — whatever the server does. Each
// connection issues every request that is due, flushes them in one
// write, and collects the answers; requests that fall due meanwhile
// are issued late, and each request's latency is measured from when it
// was due, so a stall is charged to every request it delays.
type generator struct {
	conns   []*genConn
	mix     opMix
	limitMs float64
	// nextID numbers requests across phases, so every Set value is
	// unique; maxSet is the highest id issued as a Set.
	nextID int64
	maxSet atomic.Int64
}

// genConn is one connection and its position in the per-connection
// sequence numbering loadgen.Client assigns.
type genConn struct {
	addr string
	cl   *loadgen.Client
	seq  uint64
}

func newGenerator(addrs []string, conns int, seed int64, keys int, limitMs float64) *generator {
	g := &generator{mix: opMix{seed: uint64(seed), keys: keys}, limitMs: limitMs}
	g.maxSet.Store(-1)
	for i := 0; i < conns; i++ {
		g.conns = append(g.conns, &genConn{addr: addrs[i%len(addrs)]})
	}
	return g
}

// close releases the connections.
func (g *generator) close() {
	for _, c := range g.conns {
		if c.cl != nil {
			_ = c.cl.Close()
			c.cl = nil
		}
	}
}

// maxSamples bounds the latency samples one phase keeps, so memory does
// not grow with the rate: a phase of n requests keeps every
// ceil(n/maxSamples)-th request's latency and lateness.
const maxSamples = 200000

// run drives one phase of n = rate×dur requests and waits for every
// answer.
func (g *generator) run(rate float64, dur time.Duration) *phaseStats {
	n := int64(rate * dur.Seconds())
	keep := (n + maxSamples - 1) / maxSamples
	base := g.nextID
	g.nextID += n
	start := time.Now()
	per := make([]phaseStats, len(g.conns))
	var wg sync.WaitGroup
	for i, c := range g.conns {
		wg.Add(1)
		go func(i int, c *genConn) {
			defer wg.Done()
			g.drive(c, int64(i), int64(len(g.conns)), start, rate, n, base, keep, &per[i])
		}(i, c)
	}
	wg.Wait()
	out := &phaseStats{wall: time.Since(start)}
	for i := range per {
		out.merge(&per[i], true)
	}
	return out
}

type inflight struct {
	id      int64
	due     time.Time
	write   bool
	key     string
	sampled bool
}

// drive runs connection c's share of a phase: requests c, c+stride, ...
// It keeps the samples of every keep-th of its requests.
func (g *generator) drive(c *genConn, first, stride int64, start time.Time, rate float64, n, base, keep int64, st *phaseStats) {
	due := func(i int64) time.Time { return start.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	var q []inflight
	// fail charges the requests in flight on a broken connection as
	// errors and drops the connection; the next batch redials.
	fail := func() {
		st.errs += int64(len(q))
		q = q[:0]
		_ = c.cl.Close()
		c.cl = nil
	}
	next := first
	for next < n || len(q) > 0 {
		if c.cl == nil {
			cl, err := loadgen.DialClient(c.addr)
			if err != nil {
				// Every request still due on this connection fails.
				for ; next < n; next += stride {
					st.issued++
					st.errs++
				}
				return
			}
			if c.seq > 0 || st.issued > 0 {
				st.redials++
			}
			c.cl, c.seq = cl, 0
		}
		now := time.Now()
		if next < n && len(q) == 0 {
			if d := due(next).Sub(now); d > 0 {
				time.Sleep(d)
				now = time.Now()
			}
		}
		batchStart := now
		for next < n && !due(next).After(now) {
			id := base + next
			write, key := g.mix.op(id)
			var err error
			if write {
				for {
					m := g.maxSet.Load()
					if id <= m || g.maxSet.CompareAndSwap(m, id) {
						break
					}
				}
				err = c.cl.StartSet(key, "v"+strconv.FormatInt(id, 10))
			} else {
				err = c.cl.StartGet(key)
			}
			st.issued++
			sampled := (next/stride)%keep == 0
			if sampled {
				st.lateMs = append(st.lateMs, float64(now.Sub(due(next)))/1e6)
			}
			q = append(q, inflight{id: id, due: due(next), write: write, key: key, sampled: sampled})
			next += stride
			if err != nil {
				break
			}
		}
		if err := c.cl.Flush(); err != nil {
			fail()
			continue
		}
		for i, r := range q {
			comp, err := c.cl.Next()
			if err != nil {
				q = q[i:]
				fail()
				break
			}
			if comp.Seq != c.seq {
				st.badSeq++
			}
			c.seq++
			lat := float64(time.Since(r.due)) / 1e6
			if lat > g.limitMs {
				st.overLimit++
			}
			if r.sampled {
				st.latMs = append(st.latMs, lat)
			}
			switch comp.Status {
			case statusOK:
				st.ok++
				if !r.write && !g.validValue(r.key, comp.Value) {
					st.badValue++
				}
			case statusNotFound:
				st.notFound++
			case statusNotPrimary:
				st.notPrimary++
			default:
				st.errs++
			}
		}
		if c.cl != nil {
			q = q[:0]
		}
		st.batches++
		st.batchNs += int64(time.Since(batchStart))
	}
}

// validValue reports whether value, read from key, was written there by
// a Set this generator issued.
func (g *generator) validValue(key string, value []byte) bool {
	if len(value) < 2 || value[0] != 'v' {
		return false
	}
	id, err := strconv.ParseInt(string(value[1:]), 10, 64)
	if err != nil || id > g.maxSet.Load() {
		return false
	}
	write, k := g.mix.op(id)
	return write && k == key
}
