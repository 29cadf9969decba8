// Package chaos is a seeded, deterministic TCP fault-injection proxy
// (DESIGN.md §13). It sits between a client and a real server and
// applies a scripted per-connection fault plan: added latency,
// bandwidth throttling, mid-stream truncation (cutting inside a wire
// frame), hard resets (RST) and blackholes (the connection stays open
// but silently stops forwarding).
//
// Determinism: every random decision for connection i is drawn from an
// RNG seeded by (Plan.Seed, i), so a run with the same seed and the
// same connection arrival order injects the same faults at the same
// byte offsets. Connection arrival order itself is scheduling-
// dependent; the guarantee is per-index reproducibility, which is what
// the chaos gate (cmd/kvsmoke chaos) keys its oracle on.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"swisstm/internal/harness"
)

// Plan scripts the faults for every connection through a Proxy. The
// zero value forwards faithfully (no latency, no faults) — a plain TCP
// relay.
type Plan struct {
	// Seed derives every per-connection RNG; two proxies with the same
	// Seed and Plan inject identical fault schedules, 0 included.
	Seed uint64

	// Latency is added once per forwarded chunk in each direction —
	// a crude one-way propagation delay. Jitter adds a uniformly drawn
	// extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// BandwidthBps, when positive, throttles each direction to roughly
	// this many bytes per second (chunks are delayed by size/rate).
	BandwidthBps int

	// Per-connection fault probabilities, evaluated once at accept
	// time; at most one fault arms per connection. The probabilities
	// must sum to at most 1.
	//
	//   Truncate:  after FireAfter forwarded bytes the connection is
	//              closed mid-stream, typically inside a frame.
	//   RST:       as Truncate, but with SO_LINGER=0 so the client
	//              sees a hard connection reset, not a clean FIN.
	//   Blackhole: after FireAfter forwarded bytes the proxy keeps
	//              both sockets open but forwards nothing more — the
	//              peer that only a timeout can save.
	TruncateProb  float64
	RSTProb       float64
	BlackholeProb float64
	// FireAfterMin/Max bound the fault's trigger offset: the total
	// bytes (both directions) forwarded before it fires, drawn
	// uniformly from [Min, Max]. Defaults to [0, 4096] when both are
	// zero.
	FireAfterMin int
	FireAfterMax int
}

func (p *Plan) fill() error {
	sum := p.TruncateProb + p.RSTProb + p.BlackholeProb
	if p.TruncateProb < 0 || p.RSTProb < 0 || p.BlackholeProb < 0 || sum > 1 {
		return fmt.Errorf("chaos: fault probabilities out of range (sum %.3f)", sum)
	}
	if p.Latency < 0 || p.Jitter < 0 || p.BandwidthBps < 0 {
		return fmt.Errorf("chaos: negative shaping parameter")
	}
	if p.FireAfterMin < 0 || p.FireAfterMax < p.FireAfterMin {
		return fmt.Errorf("chaos: bad fire-after window [%d, %d]", p.FireAfterMin, p.FireAfterMax)
	}
	if p.FireAfterMin == 0 && p.FireAfterMax == 0 {
		p.FireAfterMax = 4096
	}
	return nil
}

// faultKind is the per-connection fault drawn at accept time.
type faultKind int

const (
	faultNone faultKind = iota
	faultTruncate
	faultRST
	faultBlackhole
)

// connPlan is one connection's resolved schedule.
type connPlan struct {
	kind      faultKind
	fireAfter int64 // total forwarded bytes before kind fires
}

// decide resolves the plan for connection index idx — one RNG draw
// sequence per (seed, idx), independent of every other connection.
func (p *Plan) decide(idx uint64) connPlan {
	rng := rand.New(rand.NewSource(int64(harness.DeriveSeed(p.Seed, "chaos/conn", int(idx), 0))))
	cp := connPlan{kind: faultNone}
	u := rng.Float64()
	switch {
	case u < p.TruncateProb:
		cp.kind = faultTruncate
	case u < p.TruncateProb+p.RSTProb:
		cp.kind = faultRST
	case u < p.TruncateProb+p.RSTProb+p.BlackholeProb:
		cp.kind = faultBlackhole
	}
	cp.fireAfter = int64(p.FireAfterMin)
	if w := p.FireAfterMax - p.FireAfterMin; w > 0 {
		cp.fireAfter += int64(rng.Intn(w + 1))
	}
	return cp
}

// Stats are the proxy's cumulative fault counters.
type Stats struct {
	Conns      uint64 // connections accepted
	Truncates  uint64 // connections cut mid-stream
	RSTs       uint64 // connections hard-reset
	Blackholes uint64 // connections blackholed
}

// Proxy is one listening fault-injection relay in front of a target
// address.
type Proxy struct {
	plan   Plan
	target string
	ln     net.Listener

	connIdx    atomic.Uint64
	truncates  atomic.Uint64
	rsts       atomic.Uint64
	blackholes atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New starts a proxy listening on addr (e.g. "127.0.0.1:0") relaying
// to target with the given plan.
func New(addr, target string, plan Plan) (*Proxy, error) {
	if err := plan.fill(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{plan: plan, target: target, ln: ln, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's bound listen address.
func (p *Proxy) Addr() net.Addr { return p.ln.Addr() }

// Stats returns the cumulative fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:      p.connIdx.Load(),
		Truncates:  p.truncates.Load(),
		RSTs:       p.rsts.Load(),
		Blackholes: p.blackholes.Load(),
	}
}

// Close stops accepting, severs every live connection (blackholed ones
// included) and waits for the relay goroutines.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return nil
	}
	p.closed = true
	err := p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		idx := p.connIdx.Add(1) - 1
		p.wg.Add(1)
		go p.relay(conn, idx)
	}
}

// track registers c for teardown on Close; it reports false (and closes
// c) when the proxy is already closing.
func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// relay runs one proxied connection: dial the target, then pump both
// directions through the shaping/fault pipeline until either side
// closes or the armed fault kills the pair.
func (p *Proxy) relay(client net.Conn, idx uint64) {
	defer p.wg.Done()
	if !p.track(client) {
		return
	}
	defer func() { p.untrack(client); client.Close() }()

	server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
	if err != nil {
		return
	}
	if !p.track(server) {
		return
	}
	defer func() { p.untrack(server); server.Close() }()

	cp := p.plan.decide(idx)
	st := &connState{proxy: p, plan: cp}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.pump(st, client, server, idx, 0)
	}()
	go func() {
		defer wg.Done()
		p.pump(st, server, client, idx, 1)
	}()
	wg.Wait()
}

// connState is the fault bookkeeping shared by a connection's two pump
// directions.
type connState struct {
	proxy     *Proxy
	plan      connPlan
	forwarded atomic.Int64 // total bytes forwarded, both directions
	blackhole atomic.Bool  // set once the blackhole fault fires
	fireOnce  sync.Once
}

// budget reports how many of n bytes may still be forwarded before the
// armed fault fires, firing it when the allowance runs out. It returns
// n unchanged for unarmed connections.
func (st *connState) budget(n int) (allowed int, fired bool) {
	if st.plan.kind == faultNone {
		return n, false
	}
	total := st.forwarded.Add(int64(n))
	if over := total - st.plan.fireAfter; over > 0 {
		allowed = n - int(over)
		if allowed < 0 {
			allowed = 0
		}
		return allowed, true
	}
	return n, false
}

// fire applies the connection's fault exactly once. Truncate and RST
// sever both sockets (RST with SO_LINGER=0 on both, so each peer sees
// a reset); blackhole just raises the flag — the pumps keep reading
// and discard everything from then on.
func (st *connState) fire(client, server net.Conn) {
	st.fireOnce.Do(func() {
		switch st.plan.kind {
		case faultTruncate:
			st.proxy.truncates.Add(1)
			client.Close()
			server.Close()
		case faultRST:
			st.proxy.rsts.Add(1)
			if tc, ok := client.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			if tc, ok := server.(*net.TCPConn); ok {
				tc.SetLinger(0)
			}
			client.Close()
			server.Close()
		case faultBlackhole:
			st.proxy.blackholes.Add(1)
			st.blackhole.Store(true)
		}
	})
}

// pump forwards src → dst with latency/bandwidth shaping and the armed
// fault applied at its byte offset. dir (0 = client→server) salts the
// jitter RNG so the two directions draw independent, reproducible
// sequences.
func (p *Proxy) pump(st *connState, src, dst net.Conn, idx uint64, dir int) {
	rng := rand.New(rand.NewSource(int64(harness.DeriveSeed(p.plan.Seed, "chaos/jitter", int(idx), dir))))
	buf := make([]byte, 4<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := p.shapeDelay(rng, n); d > 0 {
				time.Sleep(d)
			}
			allowed, fired := st.budget(n)
			if st.blackhole.Load() {
				allowed = 0 // swallow silently, keep the sockets open
			}
			if allowed > 0 {
				if _, werr := dst.Write(buf[:allowed]); werr != nil {
					return
				}
			}
			if fired {
				st.fire(src, dst)
				if st.plan.kind != faultBlackhole {
					return // sockets are gone
				}
			}
		}
		if err != nil {
			// Half-close toward the target so a graceful client FIN still
			// drains the server's replies; a blackholed pair just parks
			// until Close or the peers give up.
			if tc, ok := dst.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// shapeDelay computes one chunk's added delay: fixed latency, jittered
// uniformly, plus the bandwidth-throttle serialization time.
func (p *Proxy) shapeDelay(rng *rand.Rand, n int) time.Duration {
	d := p.plan.Latency
	if j := p.plan.Jitter; j > 0 {
		d += time.Duration(rng.Int63n(int64(j)))
	}
	if bps := p.plan.BandwidthBps; bps > 0 {
		d += time.Duration(float64(n) / float64(bps) * float64(time.Second))
	}
	return d
}

// String renders the plan for harness logs.
func (p Plan) String() string {
	return fmt.Sprintf("seed=%d lat=%v jitter=%v bw=%dB/s p(trunc)=%.2f p(rst)=%.2f p(hole)=%.2f fire=[%d,%d]",
		p.Seed, p.Latency, p.Jitter, p.BandwidthBps,
		p.TruncateProb, p.RSTProb, p.BlackholeProb, p.FireAfterMin, p.FireAfterMax)
}
