// Package faultnet is a fault-injection TCP proxy for wire-protocol
// tests: it sits between a client and a server on the loopback and
// degrades the link on demand — added latency, partial (chunked)
// writes that split application messages across many TCP segments,
// mid-stream connection resets, byte-budgeted kills, and blackholes
// that stall forwarding without closing anything. Latency, blackholes,
// and silent drops can be scoped to one direction of the link, so a
// test can partition the export path of a sharded tier while the
// reverse path stays healthy — the asymmetric failure a real network
// produces. The faults are the ones a fault-tolerant wire layer must
// survive, produced deterministically enough to assert on.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Direction selects which side of a proxied link a fault applies to.
type Direction int

const (
	// ClientToServer is the upstream direction: bytes flowing from the
	// dialing client toward the proxied target.
	ClientToServer Direction = iota
	// ServerToClient is the downstream direction: bytes flowing from
	// the proxied target back to the client.
	ServerToClient
	// Both applies a fault symmetrically; the non-Dir setter methods
	// are shorthand for it.
	Both
)

// String names the direction for diagnostics.
func (d Direction) String() string {
	switch d {
	case ClientToServer:
		return "client->server"
	case ServerToClient:
		return "server->client"
	default:
		return "both"
	}
}

// sides expands a Direction into the pump indexes it covers.
func (d Direction) sides() []int {
	switch d {
	case ClientToServer:
		return []int{0}
	case ServerToClient:
		return []int{1}
	default:
		return []int{0, 1}
	}
}

// Proxy forwards TCP connections to a fixed target address, applying
// the currently configured faults to every byte it relays. All fault
// knobs are safe to flip while connections are live; latency, chunking,
// blackholes, and drops apply to in-flight connections immediately,
// while a kill budget is armed per connection at accept time.
type Proxy struct {
	target string
	ln     net.Listener

	latency   [2]atomic.Int64 // per-direction nanoseconds added per read-forward hop
	blackhole [2]atomic.Bool  // per-direction: stall forwarding without closing
	drop      [2]atomic.Bool  // per-direction: silently discard forwarded bytes
	chunk     atomic.Int64    // max bytes per downstream write; 0 = unlimited
	chunkGap  atomic.Int64    // nanoseconds between chunks of one write
	killAfter atomic.Int64    // per-connection byte budget armed at accept; 0 = off

	conns  atomic.Int64 // total accepted
	resets atomic.Int64 // connections reset by CutAll or a kill budget
	bytes  atomic.Int64 // total bytes forwarded (both directions)

	mu     sync.Mutex
	links  map[*link]struct{}
	closed bool
	wg     sync.WaitGroup
}

// link is one proxied connection pair.
type link struct {
	client, server net.Conn
	budget         atomic.Int64 // remaining bytes before a kill; <0 = unlimited
	once           sync.Once
}

// reset tears both sides down abruptly. SO_LINGER 0 turns the close
// into a TCP RST, so the peers observe a genuine connection reset
// rather than an orderly FIN.
func (l *link) reset() {
	l.once.Do(func() {
		for _, c := range []net.Conn{l.client, l.server} {
			if tc, ok := c.(*net.TCPConn); ok {
				_ = tc.SetLinger(0)
			}
			_ = c.Close()
		}
	})
}

// Listen starts a proxy on an ephemeral loopback port forwarding to
// target ("host:port").
func Listen(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultnet: listen: %w", err)
	}
	p := &Proxy{target: target, ln: ln, links: make(map[*link]struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.acceptLoop()
	}()
	return p, nil
}

// Addr is the proxy's listen address; point the client here instead of
// at the real target.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetLatency adds d of one-way delay to every forwarded read (applies
// in both directions, so round trips grow by ~2d).
func (p *Proxy) SetLatency(d time.Duration) { p.SetLatencyDir(Both, d) }

// SetLatencyDir adds d of delay to every forwarded read in one
// direction only (or Both); the other direction keeps its own setting.
func (p *Proxy) SetLatencyDir(dir Direction, d time.Duration) {
	for _, s := range dir.sides() {
		p.latency[s].Store(int64(d))
	}
}

// SetChunk caps downstream writes at n bytes, splitting every relayed
// buffer into n-byte TCP writes with gap between them. This lands
// application-level messages (e.g. one gob frame) across multiple
// segments, exercising peers against partial reads. n <= 0 restores
// unlimited writes.
func (p *Proxy) SetChunk(n int, gap time.Duration) {
	p.chunk.Store(int64(n))
	p.chunkGap.Store(int64(gap))
}

// SetKillAfter arms every subsequently accepted connection with a byte
// budget: after n bytes have been forwarded (both directions combined)
// the connection is reset mid-stream. n <= 0 disarms. Existing
// connections keep the budget they were accepted with.
func (p *Proxy) SetKillAfter(n int64) { p.killAfter.Store(n) }

// SetBlackhole stalls all forwarding (existing and new connections)
// without closing anything — bytes pile up untransmitted, as in a
// partition whose TCP sessions have not yet timed out. Unset to let
// traffic flow again.
func (p *Proxy) SetBlackhole(on bool) { p.SetBlackholeDir(Both, on) }

// SetBlackholeDir stalls forwarding in one direction only (or Both):
// the stalled pump parks without closing, so TCP backpressure
// eventually reaches the sender, while the reverse direction keeps
// flowing — an asymmetric partition. Unset to let the queued bytes
// drain.
func (p *Proxy) SetBlackholeDir(dir Direction, on bool) {
	for _, s := range dir.sides() {
		p.blackhole[s].Store(on)
	}
}

// SetDropDir silently discards every byte forwarded in one direction
// (or Both) while the connection — and the reverse direction — stay
// open: a one-way cut. Unlike a blackhole the sender observes write
// progress, so it keeps transmitting into the void; the receiver sees
// an idle but live peer. Unset to resume forwarding (bytes dropped in
// between are gone, as on a real lossy cut).
func (p *Proxy) SetDropDir(dir Direction, on bool) {
	for _, s := range dir.sides() {
		p.drop[s].Store(on)
	}
}

// CutAll resets every live proxied connection (TCP RST, not FIN) and
// returns how many were cut. New connections are still accepted: this
// is a transient fault, not an outage.
func (p *Proxy) CutAll() int {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	p.resets.Add(int64(len(links)))
	for _, l := range links {
		l.reset()
	}
	return len(links)
}

// Stats is a snapshot of the proxy's counters.
type Stats struct {
	Conns  int   // total connections accepted
	Live   int   // connections currently proxied
	Resets int   // connections reset by CutAll or a kill budget
	Bytes  int64 // bytes forwarded (counted as each write is issued), both directions combined
}

// Stats returns a snapshot of the proxy's counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	live := len(p.links)
	p.mu.Unlock()
	return Stats{
		Conns:  int(p.conns.Load()),
		Live:   live,
		Resets: int(p.resets.Load()),
		Bytes:  p.bytes.Load(),
	}
}

// Close stops accepting and tears down all live connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.CutAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.conns.Add(1)
		server, err := net.DialTimeout("tcp", p.target, 3*time.Second)
		if err != nil {
			_ = client.Close()
			continue
		}
		l := &link{client: client, server: server}
		if n := p.killAfter.Load(); n > 0 {
			l.budget.Store(n)
		} else {
			l.budget.Store(-1)
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			l.reset()
			return
		}
		p.links[l] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(l, 0, client, server) // ClientToServer
		go p.pump(l, 1, server, client) // ServerToClient
	}
}

// pump relays one direction of a link (side 0 = client->server, side 1
// = server->client), applying the live fault knobs to every buffer it
// forwards.
func (p *Proxy) pump(l *link, side int, src, dst net.Conn) {
	defer p.wg.Done()
	defer func() {
		// Either side ending ends the link; a half-open proxy session is
		// not a fault any of our protocols care about.
		_ = l.client.Close()
		_ = l.server.Close()
		p.mu.Lock()
		delete(p.links, l)
		p.mu.Unlock()
	}()
	buf := make([]byte, 16*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			for p.blackhole[side].Load() {
				// Stall without closing. The poll is coarse; a blackhole is
				// measured in hundreds of milliseconds in tests.
				time.Sleep(5 * time.Millisecond)
				p.mu.Lock()
				closed := p.closed
				p.mu.Unlock()
				if closed {
					return
				}
			}
			if d := p.latency[side].Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if p.drop[side].Load() {
				// One-way cut: the bytes vanish, the link stays up.
				continue
			}
			if !p.forward(l, dst, buf[:n]) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// forward writes one relayed buffer, chunked if configured, charging
// the link's kill budget. Returns false once the link is dead.
func (p *Proxy) forward(l *link, dst net.Conn, b []byte) bool {
	chunk := int(p.chunk.Load())
	gap := time.Duration(p.chunkGap.Load())
	for len(b) > 0 {
		w := b
		if chunk > 0 && len(w) > chunk {
			w = w[:chunk]
		}
		// A kill budget expires mid-stream, possibly mid-message: forward
		// only the remaining allowance, then reset.
		var killing bool
		if budget := l.budget.Load(); budget >= 0 {
			if int64(len(w)) >= budget {
				w = w[:budget]
				killing = true
			} else {
				l.budget.Store(budget - int64(len(w)))
			}
		}
		if len(w) > 0 {
			// Counted before the write, like resets below: a peer that
			// has read the bytes must find them in Stats.
			p.bytes.Add(int64(len(w)))
			if _, err := dst.Write(w); err != nil {
				return false
			}
		}
		if killing {
			// Count before tearing down: a peer that observes the reset
			// must find it in Stats.
			p.resets.Add(1)
			l.reset()
			return false
		}
		b = b[len(w):]
		if gap > 0 && len(b) > 0 {
			time.Sleep(gap)
		}
	}
	return true
}
