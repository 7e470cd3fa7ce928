package poet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/event"
	"ocep/internal/pool"
)

// ErrStreamInterrupted reports that a wire connection died without the
// protocol's explicit end-of-stream frame: the peer crashed, the network
// reset, or a heartbeat timeout fired. It is distinct from io.EOF so a
// monitor can never mistake a partial stream for a completed run. The
// reconnect logic consumes it internally; it surfaces only when
// reconnection is disabled or its backoff budget is exhausted.
var ErrStreamInterrupted = errors.New("poet: event stream interrupted")

// ErrClientClosed reports an operation on a locally closed client.
var ErrClientClosed = errors.New("poet: client closed")

// ErrSessionRejected reports a hello the server refused (for a monitor,
// typically a ResumeFrom offset beyond the server's stream — the state
// the client remembers no longer exists, e.g. after a recovery from a
// weaker-than-always fsync policy). Redialing cannot fix it, so the
// reconnect loops treat it as terminal instead of burning their backoff
// budget against a permanent refusal.
var ErrSessionRejected = errors.New("poet: session rejected by server")

// Shared wire-client defaults.
const (
	defaultDialTimeout     = 3 * time.Second
	defaultWriteTimeout    = 10 * time.Second
	defaultReconnectBudget = 30 * time.Second
	defaultBackoffBase     = 50 * time.Millisecond
	defaultBackoffMax      = 2 * time.Second
	defaultHeartbeat       = time.Second
	defaultPeerTimeout     = 10 * time.Second
	defaultReporterBuffer  = 8192
	// minHandshakeTimeout floors the hello/ack read deadline: liveness
	// timeouts may be tuned far below what a degraded link needs to
	// complete a handshake.
	minHandshakeTimeout = 2 * time.Second
)

// isTimeout reports whether err is a read/write deadline expiry.
func isTimeout(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// ---------------------------------------------------------------------
// Reporter

// ReporterOption configures DialReporter.
type ReporterOption func(*repCfg)

type repCfg struct {
	linkCfg
	buffer    int
	heartbeat time.Duration
}

func defaultRepCfg() repCfg {
	return repCfg{
		linkCfg:   defaultLinkCfg(),
		buffer:    defaultReporterBuffer,
		heartbeat: defaultHeartbeat,
	}
}

// WithReporterReconnect bounds the cumulative backoff spent redialing
// per outage. 0 disables reconnection: the first transport failure
// permanently fails the reporter.
func WithReporterReconnect(budget time.Duration) ReporterOption {
	return func(c *repCfg) { c.reconnectBudget = budget }
}

// WithReporterBuffer bounds the unacked-event buffer. Report blocks when
// it is full until the server acks (or the reporter fails).
func WithReporterBuffer(n int) ReporterOption {
	return func(c *repCfg) {
		if n > 0 {
			c.buffer = n
		}
	}
}

// WithReporterHeartbeat sets the idle heartbeat interval (keep-alives
// sent when no event is in flight) and scales the dead-peer timeout to
// 5x the interval.
func WithReporterHeartbeat(d time.Duration) ReporterOption {
	return func(c *repCfg) {
		if d > 0 {
			c.heartbeat = d
			c.peerTimeout = 5 * d
		}
	}
}

// WithReporterPeerTimeout overrides how long the reporter waits for a
// server ack or heartbeat before declaring the connection dead.
func WithReporterPeerTimeout(d time.Duration) ReporterOption {
	return func(c *repCfg) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// WithReporterBackoff overrides the reconnect backoff schedule.
func WithReporterBackoff(base, max time.Duration) ReporterOption {
	return func(c *repCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithReporterLog routes reporter diagnostics (reconnects, retransmits)
// to logf.
func WithReporterLog(logf func(string, ...any)) ReporterOption {
	return func(c *repCfg) { c.setLog(logf) }
}

// ReporterStats are a reporter's cumulative wire counters.
type ReporterStats struct {
	// Reported counts events accepted into the unacked buffer.
	Reported int
	// Acked counts events acknowledged (and pruned) by the server.
	Acked int
	// Retransmits counts events re-sent after a reconnect.
	Retransmits int
	// Reconnects counts successful re-establishments after a failure.
	Reconnects int
	// Failovers counts moves to a different endpoint in the pool
	// (connection failures on the current endpoint and drain notices).
	Failovers int
	// Flushes counts socket writes carrying event and heartbeat frames:
	// every event unsent when the sender wakes goes out in one write
	// (more when the batch outgrows the 4 KiB buffer).
	Flushes int
}

// Reporter is a target-side connection to a POET server: instrumented
// processes create one per trace (or share one) and stream raw events.
//
// The reporter is fault-tolerant: Report appends to a bounded
// unacked-event buffer and returns, a background sender streams the
// buffer to the server, and the server's periodic acks prune it. When
// the connection dies (error, reset, or no ack/heartbeat within the
// peer timeout) the sender redials with exponential backoff and jitter,
// prunes everything the server already ingested (learned from the
// handshake ack), and retransmits the rest — the server treats stale
// retransmissions as idempotent no-ops, so no event is ever lost or
// double-ingested across reconnects.
//
// Safe for concurrent use: Report only appends under an internal lock.
type Reporter struct {
	// addr is the full (possibly comma-separated) endpoint spec, for
	// messages that speak about the service as a whole; eps tracks the
	// individual endpoints and failover rotation.
	addr string
	eps  *pool.Pool
	cfg  repCfg

	mu   sync.Mutex
	cond *sync.Cond
	// unacked holds reported events not yet acked, in report order.
	// unacked[:sent] have been transmitted on the current connection.
	unacked []RawEvent
	sent    int
	// acks is the latest per-trace contiguous ack from the server.
	acks map[string]int
	// acksMoved is set when the reader or a handshake advanced an ack;
	// the next prune then rescans the whole buffer. Otherwise only
	// unacked[checked:], the events appended since the last prune, can
	// hold an acked event, and only they are checked.
	acksMoved bool
	checked   int
	closed    bool
	// failed is the permanent failure, if any; Report and Flush return it.
	failed error
	stats  ReporterStats

	// wake signals the sender (new events, new acks, close).
	wake chan struct{}
	// closeCh closes on Close, aborting any in-progress backoff sleep.
	closeCh chan struct{}
	// done closes when the sender goroutine exits.
	done chan struct{}
	wire frameStats
}

// DialReporter connects to a POET server as a target. addr may name a
// failover pool of servers as a comma-separated endpoint list
// ("host1:6711,host2:6711"); the reporter connects to the first healthy
// one and rotates to the next on connection failures and drain notices.
// The initial dial and handshake are synchronous (an unreachable pool
// fails fast after one round); subsequent failures are handled by the
// background reconnect logic.
func DialReporter(addr string, opts ...ReporterOption) (*Reporter, error) {
	cfg := defaultRepCfg()
	for _, o := range opts {
		o(&cfg)
	}
	addrs := pool.ParseAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("poet reporter: %w", pool.ErrNoEndpoints)
	}
	r := &Reporter{
		addr:    addr,
		eps:     cfg.newPool(addrs),
		cfg:     cfg,
		acks:    make(map[string]int),
		wake:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	l, err := r.cfg.redial(r.eps, 0, r.closeCh, r.hello, &r.wire)
	if err != nil {
		return nil, fmt.Errorf("poet reporter: %w", err)
	}
	go r.sender(l, r.attach(l))
	return r, nil
}

// hello names the traces with unacked events; the helloAck returns the
// server's ack for each, so the reporter prunes before retransmitting.
func (r *Reporter) hello() hello {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, 4)
	seen := make(map[string]bool)
	for _, ev := range r.unacked {
		if !seen[ev.Trace] {
			seen[ev.Trace] = true
			names = append(names, ev.Trace)
		}
	}
	return hello{Role: roleTarget, Traces: names}
}

// attach takes over a fresh link: it applies the handshake acks, marks
// the whole buffer unsent (the sender prunes acked entries and
// retransmits the rest), and starts the ack reader, whose exit closes
// the returned channel.
func (r *Reporter) attach(l *link) chan struct{} {
	r.mu.Lock()
	r.raiseAcksLocked(l.ack.Acks)
	r.sent = 0
	r.mu.Unlock()
	broken := make(chan struct{})
	go r.reader(l, broken)
	return broken
}

// reader consumes server acks on one connection, pruning is left to the
// sender (the only goroutine that mutates the buffer indices). Exits
// when the connection dies; the peer timeout makes a silent server
// indistinguishable from a dead one, on purpose.
func (r *Reporter) reader(l *link, broken chan struct{}) {
	defer close(broken)
	conn, addr := l.conn, l.addr
	for {
		_ = conn.SetReadDeadline(time.Now().Add(r.cfg.peerTimeout))
		var ack serverAck
		if err := l.dec.Decode(&ack); err != nil {
			if isTimeout(err) {
				r.cfg.logf("poet reporter: no ack or heartbeat from %s in %v; reconnecting", addr, r.cfg.peerTimeout)
			}
			_ = conn.Close()
			r.signal()
			return
		}
		if ack.Err != "" {
			// Hard rejection: the server refused an event as malformed and
			// is closing. Retransmitting it forever would be a livelock;
			// surface the error instead.
			r.fail(fmt.Errorf("poet reporter: server rejected event: %s", ack.Err))
			_ = conn.Close()
			return
		}
		r.mu.Lock()
		r.raiseAcksLocked(ack.Acks)
		r.mu.Unlock()
		r.signal()
		if ack.Drain && r.eps.HealthyAlternative(addr) {
			// The server is draining: move to a healthy peer now rather
			// than riding the session to its forced end. The acks above
			// were applied first, so the reconnect retransmits only what
			// the draining server never ingested. With no alternative
			// currently believed healthy (single endpoint, or every peer
			// mid-failure-streak) the notice is ignored — the draining
			// server keeps serving this session until its deadline, which
			// beats spinning on dead endpoints.
			r.cfg.logf("poet reporter: %s is draining; failing over", addr)
			r.eps.Demote(addr)
			_ = conn.Close()
			r.signal()
			return
		}
	}
}

func (r *Reporter) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *Reporter) fail(err error) {
	r.mu.Lock()
	if r.failed == nil {
		r.failed = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.signal()
}

// raiseAcksLocked merges server acks, flagging a full rescan when any
// of them advanced.
func (r *Reporter) raiseAcksLocked(acks []traceAck) {
	for _, ta := range acks {
		if ta.Seq > r.acks[ta.Trace] {
			r.acks[ta.Trace] = ta.Seq
			r.acksMoved = true
		}
	}
}

// prune drops acked entries from the buffer. Sender-only (it adjusts
// sent and compacts the buffer in place). The whole buffer is rescanned
// only after an ack advanced; otherwise only the events appended since
// the last prune are checked, so an event reported at or below its
// trace's ack is still dropped without a full scan.
func (r *Reporter) prune() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.acks) == 0 {
		return
	}
	from := r.checked
	if r.acksMoved {
		from, r.acksMoved = 0, false
	}
	kept, newSent := from, min(from, r.sent)
	for i := from; i < len(r.unacked); i++ {
		if r.unacked[i].Seq <= r.acks[r.unacked[i].Trace] {
			r.stats.Acked++
			continue
		}
		if i < r.sent {
			newSent++
		}
		r.unacked[kept] = r.unacked[i]
		kept++
	}
	if kept != len(r.unacked) {
		r.unacked = r.unacked[:kept]
		r.sent = newSent
		r.cond.Broadcast()
	}
	r.checked = kept
}

// sender owns the connection: it streams unsent events, heartbeats when
// idle, and reconnects (pruning and retransmitting) when the connection
// dies.
func (r *Reporter) sender(l *link, broken chan struct{}) {
	defer close(r.done)
	disconnect := func() {
		if l != nil {
			_ = l.conn.Close()
			l, broken = nil, nil
		}
	}
	defer disconnect()
	hb := time.NewTimer(r.cfg.heartbeat)
	defer hb.Stop()
	for {
		r.prune()
		r.mu.Lock()
		failed := r.failed
		closed := r.closed
		pending := r.sent < len(r.unacked)
		r.mu.Unlock()
		if failed != nil {
			return
		}
		if closed && (!pending || l == nil) {
			// Drained (or unsendable): exit. Close does not redial.
			return
		}
		if l == nil {
			var err error
			if l, broken, err = r.reconnect(); err != nil {
				if !errors.Is(err, ErrClientClosed) {
					r.fail(fmt.Errorf("poet reporter: %w (cause: %v)", ErrStreamInterrupted, err))
				}
				return
			}
			backoff.ResetTimer(hb, r.cfg.heartbeat)
			continue // re-prune with the handshake acks before sending
		}
		if pending {
			if !r.sendPending(l.fw) {
				disconnect()
				continue
			}
			backoff.ResetTimer(hb, r.cfg.heartbeat)
			continue
		}
		select {
		case <-r.wake:
		case <-broken:
			disconnect()
		case <-hb.C:
			if err := l.fw.Send(&targetMsg{Heartbeat: true}); err != nil {
				r.cfg.logf("poet reporter: heartbeat to %s failed: %v", r.addr, err)
				disconnect()
			}
			hb.Reset(r.cfg.heartbeat)
		}
	}
}

// sendPending encodes every currently unsent event and flushes them in
// one write. Returns false on a transport error (the caller reconnects).
//
// The batch is read without the lock: Report only appends past its
// end, and only the sender (this goroutine, in prune) rewrites entries.
func (r *Reporter) sendPending(fw *frameWriter) bool {
	r.mu.Lock()
	batch := r.unacked[r.sent:]
	r.mu.Unlock()
	err := fw.Batch(func(queue func(any) error) error {
		for i := range batch {
			if err := queue(&targetMsg{Event: &batch[i]}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.cfg.logf("poet reporter: send to %s failed: %v", r.addr, err)
		return false
	}
	r.mu.Lock()
	r.sent += len(batch)
	r.mu.Unlock()
	return true
}

// reconnect redials through the endpoint pool within the reconnect
// budget and counts the events it will retransmit. Runs on the sender
// goroutine.
func (r *Reporter) reconnect() (*link, chan struct{}, error) {
	if r.cfg.reconnectBudget <= 0 {
		return nil, nil, errors.New("reconnection disabled")
	}
	l, err := r.cfg.redial(r.eps, r.cfg.reconnectBudget, r.closeCh, r.hello, &r.wire)
	if err != nil {
		return nil, nil, err
	}
	broken := r.attach(l)
	r.mu.Lock()
	r.stats.Reconnects++
	retrans := 0
	for i := range r.unacked {
		if r.unacked[i].Seq > r.acks[r.unacked[i].Trace] {
			retrans++
		}
	}
	r.stats.Retransmits += retrans
	r.mu.Unlock()
	r.cfg.logf("poet reporter: reconnected to %s (retransmitting %d unacked events)", l.addr, retrans)
	return l, broken, nil
}

// Report buffers one raw event for transmission. It blocks only when the
// unacked buffer is full, and returns an error only when the reporter
// has permanently failed (reconnection disabled or exhausted, or the
// server rejected an event as malformed) or been closed.
func (r *Reporter) Report(raw RawEvent) error {
	r.mu.Lock()
	for r.failed == nil && !r.closed && len(r.unacked) >= r.cfg.buffer {
		r.cond.Wait()
	}
	if r.failed != nil {
		err := r.failed
		r.mu.Unlock()
		return err
	}
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("poet reporter: %w", ErrClientClosed)
	}
	r.unacked = append(r.unacked, raw)
	r.stats.Reported++
	r.mu.Unlock()
	r.signal()
	return nil
}

// Flush blocks until every reported event has been acknowledged by the
// server (so the collector has ingested it), or returns the permanent
// failure that prevents it.
func (r *Reporter) Flush() error {
	r.signal()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.failed == nil && !r.closed && len(r.unacked) > 0 {
		r.cond.Wait()
	}
	if r.failed != nil {
		return r.failed
	}
	if len(r.unacked) > 0 {
		return fmt.Errorf("poet reporter: closed with %d unacked events", len(r.unacked))
	}
	return nil
}

// Stats returns the reporter's cumulative wire counters.
func (r *Reporter) Stats() ReporterStats {
	r.mu.Lock()
	s := r.stats
	r.mu.Unlock()
	s.Failovers = int(r.eps.Failovers())
	s.Flushes = int(r.wire.flushes.Load())
	return s
}

// Err returns the reporter's permanent failure, if any.
func (r *Reporter) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Close sends any still-unsent events on the live connection (best
// effort; it does not redial or wait for acks — use Flush first for a
// delivery guarantee), then tears the connection down.
func (r *Reporter) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return nil
	}
	r.closed = true
	close(r.closeCh)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.signal()
	<-r.done
	return nil
}

// ---------------------------------------------------------------------
// MonitorClient

// MonitorOption configures DialMonitor.
type MonitorOption func(*monCfg)

type monCfg struct {
	linkCfg
	// sparse emits each event's timestamp in the sparse representation.
	sparse bool
}

// WithMonitorReconnect bounds the cumulative backoff spent redialing per
// outage. 0 disables reconnection: Next surfaces ErrStreamInterrupted at
// the first transport failure.
func WithMonitorReconnect(budget time.Duration) MonitorOption {
	return func(c *monCfg) { c.reconnectBudget = budget }
}

// WithMonitorReadTimeout sets how long Next waits for a frame (events or
// the server's idle heartbeats) before declaring the server dead. It
// must exceed the server's heartbeat interval.
func WithMonitorReadTimeout(d time.Duration) MonitorOption {
	return func(c *monCfg) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// WithMonitorBackoff overrides the reconnect backoff schedule.
func WithMonitorBackoff(base, max time.Duration) MonitorOption {
	return func(c *monCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithMonitorLog routes reconnect diagnostics to logf.
func WithMonitorLog(logf func(string, ...any)) MonitorOption {
	return func(c *monCfg) { c.setLog(logf) }
}

// WithMonitorSparseClocks makes the client stamp received events with
// the sparse timestamp representation (vclock.Sparse) instead of dense
// vectors. The causal order is identical either way; sparse stamps keep
// a long-lived monitor's memory proportional to each event's causal
// past rather than the trace count.
func WithMonitorSparseClocks() MonitorOption {
	return func(c *monCfg) { c.sparse = true }
}

// MonitorClientStats are a monitor client's cumulative wire counters.
type MonitorClientStats struct {
	// Received counts events consumed (also the resume offset sent on
	// reconnect).
	Received int
	// Reconnects counts successful session resumptions.
	Reconnects int
	// Failovers counts moves to a different endpoint in the pool
	// (connection failures on the current endpoint and drain notices).
	Failovers int
}

// MonitorClient receives the linearized event stream from a POET server,
// tracking trace announcements so pattern process attributes can be
// matched against trace names.
//
// The client is fault-tolerant: when the connection dies mid-stream it
// reconnects with exponential backoff and resumes from the exact event
// index it had reached (the server replays only the suffix), so the
// observed stream stays gap-free and duplicate-free across failures. A
// clean end of stream (the server's End frame) surfaces as io.EOF; a
// dead connection that cannot be resumed surfaces as
// ErrStreamInterrupted — never as a clean EOF.
//
// Not safe for concurrent use, except Close, which may be called from
// another goroutine to abort a blocked Next.
type MonitorClient struct {
	// addr is the full (possibly comma-separated) endpoint spec; eps
	// tracks the individual endpoints and failover rotation.
	addr  string
	eps   *pool.Pool
	cfg   monCfg
	names map[event.TraceID]string

	mu      sync.Mutex // guards conn swaps and closed, for cross-goroutine Close
	conn    net.Conn
	curAddr string // endpoint the live connection is to
	closed  bool
	// closeCh closes on Close, aborting any in-progress backoff sleep.
	closeCh chan struct{}
	wire    frameStats

	dec *gob.Decoder
	// ddec reconstructs the connection's delta-encoded timestamps. It is
	// replaced on every (re)connection, so its baseline resets together
	// with the server's.
	ddec     *deltaDecoder
	received int
	ended    bool
	stats    MonitorClientStats
}

// DialMonitor connects to a POET server as a monitor client. addr may
// name a failover pool of servers as a comma-separated endpoint list
// ("host1:6711,host2:6711"); the client connects to the first healthy
// one and rotates to the next on connection failures and drain notices,
// resuming the stream at its exact offset so the observed sequence
// stays gap-free and duplicate-free across the move.
func DialMonitor(addr string, opts ...MonitorOption) (*MonitorClient, error) {
	cfg := monCfg{linkCfg: defaultLinkCfg()}
	for _, o := range opts {
		o(&cfg)
	}
	addrs := pool.ParseAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("poet monitor: %w", pool.ErrNoEndpoints)
	}
	m := &MonitorClient{
		addr:    addr,
		eps:     cfg.newPool(addrs),
		cfg:     cfg,
		names:   make(map[event.TraceID]string),
		closeCh: make(chan struct{}),
	}
	l, err := m.cfg.redial(m.eps, 0, m.closeCh, m.hello, &m.wire)
	if err != nil {
		return nil, fmt.Errorf("poet monitor: %w", err)
	}
	_ = m.attach(l) // m is not yet returned, so nothing can have closed it
	return m, nil
}

// hello resumes the stream at the number of events already received.
func (m *MonitorClient) hello() hello {
	return hello{Role: roleMonitor, ResumeFrom: m.received}
}

// attach makes l the live connection, with a fresh delta decoder: the
// baseline restarts at zero on both sides of every handshake, so
// resumed replays decode correctly whatever the dead connection had
// seen. It fails with ErrClientClosed when Close won the race.
func (m *MonitorClient) attach(l *link) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		_ = l.conn.Close()
		return ErrClientClosed
	}
	m.conn, m.curAddr = l.conn, l.addr
	m.dec = l.dec
	m.ddec = &deltaDecoder{sparse: m.cfg.sparse}
	return nil
}

// Next returns the next delivered event. It returns io.EOF only on a
// clean end of stream: the server's End frame, or a locally Closed
// client. A connection that dies mid-stream is transparently resumed
// (reconnect with backoff, replay from the current offset); if resuming
// is disabled or fails, Next returns an error wrapping
// ErrStreamInterrupted.
func (m *MonitorClient) Next() (*event.Event, error) {
	if m.ended {
		return nil, io.EOF
	}
	for {
		m.mu.Lock()
		conn, addr, closed := m.conn, m.curAddr, m.closed
		m.mu.Unlock()
		if closed {
			return nil, io.EOF
		}
		_ = conn.SetReadDeadline(time.Now().Add(m.cfg.peerTimeout))
		var msg wireMsg
		if err := m.dec.Decode(&msg); err != nil {
			if m.isClosed() {
				return nil, io.EOF
			}
			if isTimeout(err) {
				m.cfg.logf("poet monitor: no frame from %s in %v; connection presumed dead", addr, m.cfg.peerTimeout)
			}
			_ = conn.Close()
			if rerr := m.resume(err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		switch {
		case msg.End:
			m.ended = true
			return nil, io.EOF
		case msg.Heartbeat:
			continue
		case msg.Drain:
			// The server is draining. A pooled client moves to a healthy
			// peer, resuming at its exact offset so the stream stays
			// gap-free and duplicate-free across the move. With no
			// alternative currently believed healthy (single endpoint, or
			// every peer mid-failure-streak) it rides the session until
			// the server's End frame instead of abandoning a live stream
			// for dead endpoints.
			if m.eps.HealthyAlternative(addr) {
				m.cfg.logf("poet monitor: %s is draining; failing over at offset %d", addr, m.received)
				m.eps.Demote(addr)
				_ = conn.Close()
				if rerr := m.resume(errors.New("server draining")); rerr != nil {
					return nil, rerr
				}
			}
			continue
		case msg.Trace != nil:
			m.names[event.TraceID(msg.Trace.ID)] = msg.Trace.Name
		case msg.Event != nil:
			vc, err := m.ddec.decode(msg.Event)
			if err != nil {
				// A baseline desync or malformed frame is a protocol
				// fault, not a transport one: resuming would mask it, so
				// surface it.
				return nil, err
			}
			m.received++
			m.stats.Received = m.received
			return msg.Event.event(vc), nil
		default:
			return nil, fmt.Errorf("poet monitor: empty wire message")
		}
	}
}

// resume redials through the endpoint pool within the reconnect budget
// and resumes the session at the current offset. cause is the transport
// error that killed the connection.
func (m *MonitorClient) resume(cause error) error {
	interrupted := fmt.Errorf("poet monitor: %w after %d events (cause: %v)", ErrStreamInterrupted, m.received, cause)
	if m.cfg.reconnectBudget <= 0 {
		return interrupted
	}
	l, err := m.cfg.redial(m.eps, m.cfg.reconnectBudget, m.closeCh, m.hello, &m.wire)
	if err == nil {
		err = m.attach(l)
	}
	switch {
	case errors.Is(err, ErrClientClosed):
		return io.EOF
	case errors.Is(err, ErrSessionRejected):
		// Terminal: the offset this client remembers is beyond what the
		// server (or a promoted standby) can replay.
		return fmt.Errorf("%w: %w", interrupted, err)
	case err != nil:
		return fmt.Errorf("%w; %w", interrupted, err)
	}
	m.stats.Reconnects++
	m.cfg.logf("poet monitor: resumed session with %s at offset %d", l.addr, m.received)
	return nil
}

func (m *MonitorClient) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// TraceName returns the announced name of a trace.
func (m *MonitorClient) TraceName(t event.TraceID) (string, bool) {
	name, ok := m.names[t]
	return name, ok
}

// Traces returns all announced trace IDs in no particular order.
func (m *MonitorClient) Traces() []event.TraceID {
	out := make([]event.TraceID, 0, len(m.names))
	for t := range m.names {
		out = append(out, t)
	}
	return out
}

// Stats returns the client's cumulative wire counters.
func (m *MonitorClient) Stats() MonitorClientStats {
	s := m.stats
	s.Failovers = int(m.eps.Failovers())
	return s
}

// Close closes the connection and stops any in-flight reconnection,
// including one parked in a backoff sleep.
func (m *MonitorClient) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.closeCh)
	conn := m.conn
	m.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}
