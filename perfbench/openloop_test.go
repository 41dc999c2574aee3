package main

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"dynvote/internal/gcs"
	"dynvote/internal/loadgen"
	"dynvote/internal/register"
	"dynvote/internal/ykd"
)

// stallProxy relays TCP between clients and a server and can hold the
// server's answers back for a while.
type stallProxy struct {
	ln     net.Listener
	target string

	mu      sync.Mutex
	release time.Time // answers wait until then
	wg      sync.WaitGroup
}

func newStallProxy(t *testing.T, target string) *stallProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, target: target}
	p.wg.Add(1)
	go p.accept()
	return p
}

func (p *stallProxy) stall(d time.Duration) {
	p.mu.Lock()
	p.release = time.Now().Add(d)
	p.mu.Unlock()
}

func (p *stallProxy) close() {
	_ = p.ln.Close()
	p.wg.Wait()
}

func (p *stallProxy) accept() {
	defer p.wg.Done()
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			_ = c.Close()
			continue
		}
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			_, _ = io.Copy(s, c)
			_ = s.Close()
		}()
		go func() {
			defer p.wg.Done()
			defer c.Close()
			buf := make([]byte, 32<<10)
			for {
				n, err := s.Read(buf)
				if n > 0 {
					p.mu.Lock()
					wait := time.Until(p.release)
					p.mu.Unlock()
					if wait > 0 {
						time.Sleep(wait)
					}
					if _, werr := c.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
	}
}

// TestGeneratorChargesStall runs the open-loop generator against a
// server whose answers stall for a known interval. Every request due
// during the stall must be issued and answered, with its latency taken
// from when it was due, and the generator must report how late it ran.
// A no-debt pacer would instead issue one request after the stall and
// record a single slow answer.
func TestGeneratorChargesStall(t *testing.T) {
	mn := gcs.NewMemNetwork(1)
	st, err := register.Open(register.Config{
		ID: 0, N: 1, Transport: mn.Transport(0), Algorithm: ykd.Factory(ykd.VariantYKD),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, err := loadgen.NewServer(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newStallProxy(t, srv.Addr())
	defer proxy.close()

	const (
		rate    = 2000.0
		dur     = 600 * time.Millisecond
		stallAt = 200 * time.Millisecond
		stall   = 200 * time.Millisecond
	)
	g := newGenerator([]string{proxy.ln.Addr().String()}, 1, 1, 8, float64(stall/2)/1e6)
	defer g.close()
	timer := time.AfterFunc(stallAt, func() { proxy.stall(stall) })
	defer timer.Stop()
	p := g.run(rate, dur)

	want := int64(rate * dur.Seconds())
	if p.issued != want || p.answered() != want || p.errs != 0 {
		t.Fatalf("issued %d answered %d errors %d, want %d issued and answered", p.issued, p.answered(), p.errs, want)
	}
	if p.badSeq != 0 || p.badValue != 0 {
		t.Fatalf("badSeq %d badValue %d", p.badSeq, p.badValue)
	}
	// Requests due in the stall's first half waited more than half the
	// stall for their answers.
	if min := int64(rate * (stall / 2).Seconds() * 0.8); p.overLimit < min {
		t.Errorf("%d requests waited over %v, want at least %d", p.overLimit, stall/2, min)
	}
	if max := quantile(p.latMs, 1); max < float64(stall*8/10)/1e6 {
		t.Errorf("slowest request took %.1fms, want about the %v stall", max, stall)
	}
	if late := quantile(p.lateMs, 1); late < float64(stall/2)/1e6 {
		t.Errorf("generator lateness %.1fms, want it to show the stall", late)
	}
}
