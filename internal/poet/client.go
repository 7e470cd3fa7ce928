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
	"ocep/internal/vclock"
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
	buffer          int
	reconnectBudget time.Duration
	backoffBase     time.Duration
	backoffMax      time.Duration
	heartbeat       time.Duration
	peerTimeout     time.Duration
	dialTimeout     time.Duration
	writeTimeout    time.Duration
	logf            func(string, ...any)
}

func defaultRepCfg() repCfg {
	return repCfg{
		buffer:          defaultReporterBuffer,
		reconnectBudget: defaultReconnectBudget,
		backoffBase:     defaultBackoffBase,
		backoffMax:      defaultBackoffMax,
		heartbeat:       defaultHeartbeat,
		peerTimeout:     defaultPeerTimeout,
		dialTimeout:     defaultDialTimeout,
		writeTimeout:    defaultWriteTimeout,
		logf:            func(string, ...any) {},
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
	return func(c *repCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
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

	// initial connection, handed to the sender.
	conn   net.Conn
	fw     *frameWriter
	broken chan struct{}
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
		eps:     pool.New(addrs, cfg.backoffBase, cfg.backoffMax),
		cfg:     cfg,
		acks:    make(map[string]int),
		wake:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	// One synchronous round over the pool: a fully unreachable service
	// fails fast, a partially degraded one lands on a healthy endpoint.
	var (
		conn   net.Conn
		fw     *frameWriter
		broken chan struct{}
	)
	for i := 0; ; i++ {
		ep := r.eps.Pick()
		var err error
		conn, fw, broken, err = r.handshake(ep)
		if err == nil {
			r.eps.Success(ep)
			break
		}
		if errors.Is(err, ErrSessionRejected) {
			return nil, fmt.Errorf("poet reporter: %w", err)
		}
		r.eps.Fail(ep, err)
		if i+1 >= r.eps.Size() {
			return nil, fmt.Errorf("poet reporter: %w", r.eps.ErrorSummary())
		}
	}
	r.conn, r.fw, r.broken = conn, fw, broken
	go r.sender()
	return r, nil
}

// handshake dials one endpoint, sends the hello (naming the traces with
// unacked events), reads the helloAck, and spawns the ack reader. Called
// from DialReporter and, on the sender goroutine, from reconnect.
func (r *Reporter) handshake(addr string) (net.Conn, *frameWriter, chan struct{}, error) {
	conn, err := net.DialTimeout("tcp", addr, r.cfg.dialTimeout)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dial: %w", err)
	}
	r.mu.Lock()
	names := make([]string, 0, 4)
	seen := make(map[string]bool)
	for _, ev := range r.unacked {
		if !seen[ev.Trace] {
			seen[ev.Trace] = true
			names = append(names, ev.Trace)
		}
	}
	r.mu.Unlock()
	fw := newFrameWriter(conn, nil, r.cfg.writeTimeout, &r.wire)
	if err := fw.Send(hello{Magic: wireMagic, Role: roleTarget, Traces: names}); err != nil {
		_ = conn.Close()
		return nil, nil, nil, fmt.Errorf("hello: %w", err)
	}
	dec := gob.NewDecoder(conn)
	// The handshake deadline is floored: peerTimeout tracks the
	// heartbeat interval and can be tuned to tens of milliseconds for
	// fast liveness detection, but the one-shot hello/ack exchange over
	// a slow or degraded link should not inherit that aggressiveness —
	// a reconnect loop that times out every handshake never recovers.
	hsTimeout := r.cfg.peerTimeout
	if hsTimeout < minHandshakeTimeout {
		hsTimeout = minHandshakeTimeout
	}
	_ = conn.SetReadDeadline(time.Now().Add(hsTimeout))
	var ack helloAck
	if err := dec.Decode(&ack); err != nil {
		_ = conn.Close()
		return nil, nil, nil, fmt.Errorf("hello ack: %w", err)
	}
	if !ack.OK {
		_ = conn.Close()
		if ack.Retry {
			// A retriable refusal (standby awaiting promotion, draining
			// server): treated like a dial failure so the pool rotates
			// and the backoff schedule keeps probing.
			return nil, nil, nil, fmt.Errorf("session deferred: %s", ack.Error)
		}
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrSessionRejected, ack.Error)
	}
	r.mu.Lock()
	r.raiseAcksLocked(ack.Acks)
	// Everything on the new connection is unsent; the sender prunes
	// acked entries and retransmits the remainder.
	r.sent = 0
	r.mu.Unlock()
	broken := make(chan struct{})
	go r.reader(conn, addr, dec, broken)
	return conn, fw, broken, nil
}

// reader consumes server acks on one connection, pruning is left to the
// sender (the only goroutine that mutates the buffer indices). Exits
// when the connection dies; the peer timeout makes a silent server
// indistinguishable from a dead one, on purpose.
func (r *Reporter) reader(conn net.Conn, addr string, dec *gob.Decoder, broken chan struct{}) {
	defer close(broken)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(r.cfg.peerTimeout))
		var ack serverAck
		if err := dec.Decode(&ack); err != nil {
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
func (r *Reporter) sender() {
	defer close(r.done)
	conn, fw, broken := r.conn, r.fw, r.broken
	disconnect := func() {
		if conn != nil {
			_ = conn.Close()
			conn, fw, broken = nil, nil, nil
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
		if closed && (!pending || conn == nil) {
			// Drained (or unsendable): exit. Close does not redial.
			return
		}
		if conn == nil {
			c, f, b, err := r.reconnect()
			if err != nil {
				if !errors.Is(err, ErrClientClosed) {
					r.fail(fmt.Errorf("poet reporter: %w (cause: %v)", ErrStreamInterrupted, err))
				}
				return
			}
			conn, fw, broken = c, f, b
			backoff.ResetTimer(hb, r.cfg.heartbeat)
			continue // re-prune with the handshake acks before sending
		}
		if pending {
			if !r.sendPending(fw) {
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
			if err := fw.Send(&targetMsg{Heartbeat: true}); err != nil {
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

// reconnect redials with backoff — rotating through the endpoint pool,
// sleeping only when a whole round has failed — until the budget is
// exhausted. Runs on the sender goroutine.
func (r *Reporter) reconnect() (net.Conn, *frameWriter, chan struct{}, error) {
	if r.cfg.reconnectBudget <= 0 {
		return nil, nil, nil, errors.New("reconnection disabled")
	}
	var slept time.Duration
	for {
		r.mu.Lock()
		closed, failed := r.closed, r.failed
		r.mu.Unlock()
		if closed || failed != nil {
			return nil, nil, nil, ErrClientClosed
		}
		ep := r.eps.Pick()
		conn, fw, broken, err := r.handshake(ep)
		if err == nil {
			r.eps.Success(ep)
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
			r.cfg.logf("poet reporter: reconnected to %s (retransmitting %d unacked events)", ep, retrans)
			return conn, fw, broken, nil
		}
		if errors.Is(err, ErrSessionRejected) {
			// Terminal: the server understood the session and refused it
			// for keeps. Another endpoint cannot make the refusal wrong,
			// so it is not retried elsewhere.
			return nil, nil, nil, err
		}
		d := r.eps.Fail(ep, err)
		if slept+d > r.cfg.reconnectBudget {
			return nil, nil, nil, fmt.Errorf("reconnect budget %v exhausted: %w", r.cfg.reconnectBudget, r.eps.ErrorSummary())
		}
		slept += d
		if !backoff.Sleep(d, r.closeCh) {
			return nil, nil, nil, ErrClientClosed
		}
	}
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
	reconnectBudget time.Duration
	backoffBase     time.Duration
	backoffMax      time.Duration
	readTimeout     time.Duration
	dialTimeout     time.Duration
	logf            func(string, ...any)
	// deltaVC advertises delta-encoded timestamps in the hello. On by
	// default; a server that predates the flag simply never confirms
	// it and the session stays dense.
	deltaVC bool
	// sparse emits each event's timestamp in the sparse representation.
	sparse bool
}

func defaultMonCfg() monCfg {
	return monCfg{
		reconnectBudget: defaultReconnectBudget,
		backoffBase:     defaultBackoffBase,
		backoffMax:      defaultBackoffMax,
		readTimeout:     defaultPeerTimeout,
		dialTimeout:     defaultDialTimeout,
		logf:            func(string, ...any) {},
		deltaVC:         true,
	}
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
			c.readTimeout = d
		}
	}
}

// WithMonitorBackoff overrides the reconnect backoff schedule.
func WithMonitorBackoff(base, max time.Duration) MonitorOption {
	return func(c *monCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithMonitorLog routes reconnect diagnostics to logf.
func WithMonitorLog(logf func(string, ...any)) MonitorOption {
	return func(c *monCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// WithMonitorDeltaVC controls whether the client offers delta-encoded
// vector timestamps at the handshake (on by default). The server must
// confirm the offer for the session to use deltas; a server that
// predates the negotiation silently keeps the session on dense full
// vectors, so the option never breaks compatibility. Turning it off
// forces dense timestamps — useful as a differential oracle against the
// delta path.
func WithMonitorDeltaVC(on bool) MonitorOption {
	return func(c *monCfg) { c.deltaVC = on }
}

// WithMonitorSparseClocks makes the client stamp received events with
// the sparse timestamp representation (vclock.Sparse) instead of dense
// vectors. The causal order is identical either way; sparse stamps keep
// a long-lived monitor's memory proportional to each event's causal
// past rather than the trace count. Works on both dense and
// delta-negotiated sessions.
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
	// DeltaNegotiated reports whether the current connection carries
	// delta-encoded timestamps (the server confirmed the offer).
	DeltaNegotiated bool
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

	dec *gob.Decoder
	// ddec reconstructs delta-encoded timestamps; nil on a dense
	// session. Replaced wholesale on every (re)connection so the
	// baseline resets together with the server's.
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
	cfg := defaultMonCfg()
	for _, o := range opts {
		o(&cfg)
	}
	addrs := pool.ParseAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("poet monitor: %w", pool.ErrNoEndpoints)
	}
	m := &MonitorClient{
		addr:    addr,
		eps:     pool.New(addrs, cfg.backoffBase, cfg.backoffMax),
		cfg:     cfg,
		names:   make(map[event.TraceID]string),
		closeCh: make(chan struct{}),
	}
	// One synchronous round over the pool: a fully unreachable service
	// fails fast, a partially degraded one lands on a healthy endpoint.
	for i := 0; ; i++ {
		ep := m.eps.Pick()
		err := m.connect(ep, 0)
		if err == nil {
			m.eps.Success(ep)
			break
		}
		if errors.Is(err, ErrSessionRejected) {
			return nil, fmt.Errorf("poet monitor: %w", err)
		}
		m.eps.Fail(ep, err)
		if i+1 >= m.eps.Size() {
			return nil, fmt.Errorf("poet monitor: %w", m.eps.ErrorSummary())
		}
	}
	return m, nil
}

// connect dials one endpoint and performs the hello/helloAck handshake,
// resuming from the given linearization offset.
func (m *MonitorClient) connect(addr string, resumeFrom int) error {
	conn, err := net.DialTimeout("tcp", addr, m.cfg.dialTimeout)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	enc := gob.NewEncoder(conn)
	_ = conn.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
	if err := enc.Encode(hello{Magic: wireMagic, Role: roleMonitor, ResumeFrom: resumeFrom, DeltaVC: m.cfg.deltaVC}); err != nil {
		_ = conn.Close()
		return fmt.Errorf("hello: %w", err)
	}
	dec := gob.NewDecoder(conn)
	_ = conn.SetReadDeadline(time.Now().Add(m.cfg.readTimeout))
	var ack helloAck
	if err := dec.Decode(&ack); err != nil {
		_ = conn.Close()
		return fmt.Errorf("hello ack: %w", err)
	}
	if !ack.OK {
		_ = conn.Close()
		if ack.Retry {
			// A retriable refusal (standby awaiting promotion, draining
			// server): treated like a dial failure so the pool rotates
			// and the backoff schedule keeps probing.
			return fmt.Errorf("session deferred: %s", ack.Error)
		}
		return fmt.Errorf("%w: %s", ErrSessionRejected, ack.Error)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		_ = conn.Close()
		return ErrClientClosed
	}
	m.conn = conn
	m.curAddr = addr
	m.mu.Unlock()
	m.dec = dec
	// A fresh decoder per connection: the delta baseline restarts at
	// zero on both sides of every handshake, so resumed replays decode
	// correctly regardless of what the dead connection had seen.
	if ack.DeltaVC {
		m.ddec = &deltaDecoder{sparse: m.cfg.sparse}
	} else {
		m.ddec = nil
	}
	m.stats.DeltaNegotiated = ack.DeltaVC
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
		_ = conn.SetReadDeadline(time.Now().Add(m.cfg.readTimeout))
		var msg wireMsg
		if err := m.dec.Decode(&msg); err != nil {
			if m.isClosed() {
				return nil, io.EOF
			}
			if isTimeout(err) {
				m.cfg.logf("poet monitor: no frame from %s in %v; connection presumed dead", addr, m.cfg.readTimeout)
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
			e, err := m.eventFromWire(msg.Event)
			if err != nil {
				// A baseline desync is a protocol bug, not a transport
				// fault: resuming would mask it, so surface it.
				return nil, err
			}
			m.received++
			m.stats.Received = m.received
			return e, nil
		default:
			return nil, fmt.Errorf("poet monitor: empty wire message")
		}
	}
}

// eventFromWire materializes one received event in the configured
// timestamp representation, decoding the connection's delta stream when
// one was negotiated.
func (m *MonitorClient) eventFromWire(w *wireEvent) (*event.Event, error) {
	if m.ddec == nil {
		e := fromWire(w)
		if m.cfg.sparse {
			e.VC = vclock.SparseOf(e.VC)
		}
		return e, nil
	}
	vc, err := m.ddec.decode(w)
	if err != nil {
		return nil, err
	}
	e := fromWire(w)
	e.VC = vc
	return e, nil
}

// resume redials with backoff — rotating through the endpoint pool,
// sleeping only when a whole round has failed — and resumes the session
// at the current offset. cause is the transport error that killed the
// connection.
func (m *MonitorClient) resume(cause error) error {
	interrupted := fmt.Errorf("poet monitor: %w after %d events (cause: %v)", ErrStreamInterrupted, m.received, cause)
	if m.cfg.reconnectBudget <= 0 {
		return interrupted
	}
	var slept time.Duration
	for {
		if m.isClosed() {
			return io.EOF
		}
		ep := m.eps.Pick()
		err := m.connect(ep, m.received)
		if err == nil {
			m.eps.Success(ep)
			m.stats.Reconnects++
			m.cfg.logf("poet monitor: resumed session with %s at offset %d", ep, m.received)
			return nil
		}
		if errors.Is(err, ErrClientClosed) {
			return io.EOF
		}
		if errors.Is(err, ErrSessionRejected) {
			// Terminal: the offset this client remembers is beyond what
			// the server (or a promoted standby) can replay. Another
			// endpoint cannot make the refusal wrong, so it is not
			// retried elsewhere.
			return fmt.Errorf("%w: %w", interrupted, err)
		}
		d := m.eps.Fail(ep, err)
		if slept+d > m.cfg.reconnectBudget {
			return fmt.Errorf("%w; reconnect budget %v exhausted: %w", interrupted, m.cfg.reconnectBudget, m.eps.ErrorSummary())
		}
		slept += d
		if !backoff.Sleep(d, m.closeCh) {
			return io.EOF
		}
	}
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
