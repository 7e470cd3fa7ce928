package poet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/event"
)

// Warm-standby replication. A primary collector with the replication
// log enabled captures its ingestion-ordered record stream — every
// successfully ingested raw event plus every explicit trace
// registration, in exactly the order the WAL would log them — and
// serves it to replica sessions (hello role "replica") over the normal
// OCEP-POET-2 port. A standby runs a Replicator that applies the stream
// to its own collector through the public Report/RegisterTrace path, so
// the standby's delivery, ack watermarks, and monitor offsets are the
// deterministic product of the same record order the primary ingested:
// after a failover, a monitor's ResumeFrom and a reporter's pruned
// prefix mean the same thing on the standby that they meant on the
// primary.
//
// Two barriers make the failover exact while a replica is attached:
//
//   - reporter acks are released only once the replica has confirmed
//     the ingest position the ack snapshot was taken at (acksFor), so a
//     reporter never prunes an event the promoted standby might lack;
//   - monitor sends wait for the same confirmation (replBarrier), so a
//     monitor's resume offset never runs ahead of what the standby can
//     replay.
//
// Both barriers lift the moment no replica session is attached — a dead
// or detached standby must not take the primary's availability with it.
// The window this opens (events acked while no replica was attached are
// lost if the primary then dies before the replica catches up) is the
// standard warm-standby trade; the replication lag gauge and the
// standby's /readyz check are there to keep it observable.

// defaultReplAckWait bounds how long an ack release waits for a lagging
// replica before the ack is withheld for one interval; poetd lowers it
// to half the heartbeat so withheld acks still leave room for the empty
// frame to heartbeat the reporter.
const defaultReplAckWait = 500 * time.Millisecond

// ErrPrimaryDrained reports that the primary ended the replication
// session with an orderly drain (clean shutdown after full
// replication): the standby should promote.
var ErrPrimaryDrained = errors.New("poet: primary drained")

// repRecord is one entry of the replication log: an explicit trace
// registration (Trace non-empty), a peer-shard send record applied by
// SupplyRemoteSend (Remote non-nil), or an ingested event. Remote
// records matter on a sharded primary: delivery order depends on when
// remote sends became available, so the standby must apply them at the
// same position of the record stream to rebuild the identical
// linearization.
type repRecord struct {
	Trace  string
	Event  RawEvent
	Remote *shardExport
}

// isEvent reports whether the record is an ingested event — the only
// record kind replication offsets count.
func (r repRecord) isEvent() bool { return r.Trace == "" && r.Remote == nil }

// replState is the collector's replication bookkeeping, guarded by the
// collector's mu.
type replState struct {
	// log is the append-only ingestion-ordered record stream.
	log []repRecord
	// events counts the event records in log (the offset currency).
	events int
	// confirmed maps attached replica session ids to the event-record
	// count each has acknowledged applying.
	confirmed map[int]int
	nextSess  int
	// ch is closed and replaced whenever the log grows or a
	// confirmation/attachment changes, waking record senders and
	// barrier waiters (the channel-swap notification pattern).
	ch chan struct{}
}

func (r *replState) appendLocked(rec repRecord) {
	r.log = append(r.log, rec)
	if rec.isEvent() {
		r.events++
	}
	r.notifyLocked()
}

func (r *replState) notifyLocked() {
	close(r.ch)
	r.ch = make(chan struct{})
}

func (r *replState) minConfirmed() int {
	min := -1
	for _, n := range r.confirmed {
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// EnableReplicationLog makes the collector capture its ingestion-ordered
// record stream so replica sessions can tail it. Must be called before
// any event is ingested (a replica resuming from zero needs the stream
// complete from the start — enable it before OpenDurable so the
// recovered prefix is captured too), and is incompatible with
// SetRetention. Idempotent.
func (c *Collector) EnableReplicationLog() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.repl != nil {
		return nil
	}
	if c.retain > 0 {
		return errors.New("poet: replication log is incompatible with SetRetention (a replica resume needs the full record stream)")
	}
	if c.ingests > 0 {
		return errors.New("poet: EnableReplicationLog must be called before any event is ingested")
	}
	c.repl = &replState{confirmed: make(map[int]int), ch: make(chan struct{})}
	return nil
}

// SetReplicationAckWait bounds how long reporter-ack release waits for
// an attached replica's confirmation before withholding the ack for one
// interval. Zero restores the default.
func (c *Collector) SetReplicationAckWait(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replAckWait = d
}

// ReplicationStats summarizes the primary side of replication.
type ReplicationStats struct {
	// Enabled reports whether the record stream is being captured.
	Enabled bool
	// Sessions is the number of currently attached replica sessions.
	Sessions int
	// Confirmed is the lowest event-record count an attached session
	// has confirmed (0 with no sessions).
	Confirmed int
	// Lag is the number of ingested events not yet confirmed by every
	// attached session (0 with no sessions: there is no one to lag).
	Lag int
	// Records is the length of the captured record stream (events plus
	// trace registrations).
	Records int
}

// ReplicationStats returns the primary-side replication counters.
func (c *Collector) ReplicationStats() ReplicationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ReplicationStats{Enabled: c.repl != nil}
	if c.repl == nil {
		return st
	}
	st.Sessions = len(c.repl.confirmed)
	st.Records = len(c.repl.log)
	if st.Sessions > 0 {
		st.Confirmed = c.repl.minConfirmed()
		st.Lag = c.ingests - st.Confirmed
	}
	return st
}

// replAttach registers a replica session whose hello confirmed applying
// the first `applied` event records, returning its session id.
func (c *Collector) replAttach(applied int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.repl.nextSess
	c.repl.nextSess++
	c.repl.confirmed[id] = applied
	c.repl.notifyLocked()
	return id
}

// replDetach removes a replica session; barriers that were waiting on
// it lift (the availability-over-durability choice documented above).
func (c *Collector) replDetach(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.repl.confirmed, id)
	c.repl.notifyLocked()
}

// replConfirm records a replica's confirmation of the first `applied`
// event records.
func (c *Collector) replConfirm(id, applied int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.repl.confirmed[id]; ok && applied > cur {
		c.repl.confirmed[id] = applied
		c.repl.notifyLocked()
	}
}

// replWait blocks until every attached replica session has confirmed
// pos event records, no session remains attached, or the timeout
// expires; it reports whether the confirmation condition held.
func (c *Collector) replWait(pos int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		r := c.repl
		if r == nil || len(r.confirmed) == 0 || r.minConfirmed() >= pos {
			c.mu.Unlock()
			return true
		}
		ch := r.ch
		c.mu.Unlock()
		d := time.Until(deadline)
		if d <= 0 {
			return false
		}
		t := time.NewTimer(d)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return false
		}
	}
}

// replBarrier blocks until every attached replica session has confirmed
// the current ingest position, or no session remains attached. The
// monitor send path runs behind it: an event is never on a monitor wire
// before the standby that would serve the monitor's resume has it. The
// wait is unbounded on purpose — a hung replica is evicted by the
// server's peer timeout, which detaches the session and lifts the
// barrier.
func (c *Collector) replBarrier() {
	c.mu.Lock()
	if c.repl == nil || len(c.repl.confirmed) == 0 {
		c.mu.Unlock()
		return
	}
	pos := c.ingests
	c.mu.Unlock()
	for {
		c.mu.Lock()
		r := c.repl
		if r == nil || len(r.confirmed) == 0 || r.minConfirmed() >= pos {
			c.mu.Unlock()
			return
		}
		ch := r.ch
		c.mu.Unlock()
		<-ch
	}
}

// replResumeIndex translates a replica's event-record offset into an
// index of the record log: the position just past the offset-th event
// record. Trace records inside the skipped prefix were applied by the
// replica strictly in order (it could not have applied the offset-th
// event otherwise), so nothing before the index needs replay.
func (c *Collector) replResumeIndex(events int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if events < 0 || events > c.repl.events {
		return 0, fmt.Errorf("replica claims %d applied events, this collector ingested %d: it did not produce that stream", events, c.repl.events)
	}
	if events == 0 {
		return 0, nil
	}
	seen := 0
	for i, rec := range c.repl.log {
		if rec.isEvent() {
			seen++
			if seen == events {
				return i + 1, nil
			}
		}
	}
	// Unreachable: events <= c.repl.events was checked above.
	return len(c.repl.log), nil
}

// replRecordsFrom returns the record suffix starting at log index idx,
// the index just past it, the current ingest head, and the channel that
// signals growth (for an empty suffix). Records are immutable once
// appended, so the returned slice is safe to read without copying.
func (c *Collector) replRecordsFrom(idx int) (recs []repRecord, next, head int, ch <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.repl
	if idx < len(r.log) {
		recs = r.log[idx:len(r.log):len(r.log)]
	}
	return recs, len(r.log), c.ingests, r.ch
}

// ---------------------------------------------------------------------
// Server side: replica sessions, standby gating, drain.

// handleReplica streams the collector's record log to one warm standby:
// the suffix past the replica's confirmed offset first, then live
// records as they are ingested, with idle heartbeats carrying the
// ingest head so the replica can compute its lag on a quiet stream. A
// background reader consumes replicaAck frames and feeds the
// confirmations that release the primary's ack and monitor-send
// barriers.
func (s *Server) handleReplica(conn net.Conn, dec *gob.Decoder, h hello) error {
	c := s.collector
	fw := s.newFrameWriter(conn, nil)
	if !c.ReplicationStats().Enabled {
		msg := "replication log not enabled on this collector"
		_ = fw.Send(&helloAck{Error: msg})
		return fmt.Errorf("replica %s: %s", conn.RemoteAddr(), msg)
	}
	idx, err := c.replResumeIndex(h.ReplicaFrom)
	if err != nil {
		_ = fw.Send(&helloAck{Error: err.Error()})
		return fmt.Errorf("replica %s: %v", conn.RemoteAddr(), err)
	}
	if err := fw.Send(&helloAck{OK: true}); err != nil {
		return fmt.Errorf("replica hello ack: %w", err)
	}
	s.replicaSessions.Add(1)
	s.tel.replicaConns.Inc()
	if h.ReplicaFrom > 0 {
		s.targetResumes.Add(1)
	}
	sess := c.replAttach(h.ReplicaFrom)
	defer c.replDetach(sess)
	s.logf("poet server: replica %s attached at offset %d", conn.RemoteAddr(), h.ReplicaFrom)

	// Confirmation reader. The peer timeout applies: a replica that
	// stops acking (hung, partitioned) is declared dead, detaching the
	// session so the barriers lift instead of stalling the primary.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			_ = conn.SetReadDeadline(time.Now().Add(s.peerTimeout))
			var ack replicaAck
			if err := dec.Decode(&ack); err != nil {
				if isTimeout(err) {
					s.tel.peerTimeouts.Inc()
					s.logf("poet server: replica %s silent for %v; presumed dead", conn.RemoteAddr(), s.peerTimeout)
				}
				_ = conn.Close()
				return
			}
			if !ack.Heartbeat || ack.Applied > 0 {
				c.replConfirm(sess, ack.Applied)
			}
		}
	}()

	goodbye := func() error {
		// Drain precedes End: the replica takes it as the primary's
		// clean handoff and promotes.
		if err := fw.Send(&wireMsg{Drain: true}); err != nil {
			return err
		}
		return fw.Send(&wireMsg{End: true})
	}
	hb := time.NewTimer(s.hbInterval)
	defer hb.Stop()
	for {
		recs, next, head, ch := c.replRecordsFrom(idx)
		// The whole batch leaves in one flush, before parking.
		err := fw.Batch(func(queue func(any) error) error {
			for i := range recs {
				msg := wireMsg{Head: head}
				switch {
				case recs[i].Trace != "":
					msg.Trace = &wireTrace{Name: recs[i].Trace}
				case recs[i].Remote != nil:
					rs := recs[i].Remote
					w := toWire(&event.Event{ID: rs.ID, VC: rs.VC})
					w.MsgID = rs.MsgID
					msg.Shard = w
				default:
					msg.Raw = &recs[i].Event
					s.replicaEvents.Add(1)
					s.tel.replicaEvents.Inc()
				}
				if err := queue(&msg); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			<-readerDone
			return fmt.Errorf("encoding to replica: %w", err)
		}
		idx = next
		if len(recs) > 0 {
			// Re-check for records appended while this batch encoded
			// before parking.
			backoff.ResetTimer(hb, s.hbInterval)
			continue
		}
		select {
		case <-ch:
		case <-hb.C:
			hb.Reset(s.hbInterval)
			if err := fw.Send(&wireMsg{Heartbeat: true, Head: head}); err != nil {
				<-readerDone
				return fmt.Errorf("heartbeat to replica: %w", err)
			}
			s.heartbeats.Add(1)
		case <-readerDone:
			return nil
		case <-s.closing:
			err := goodbye()
			_ = conn.Close()
			<-readerDone
			return err
		}
	}
}

// SetStandby marks the server as an unpromoted warm standby: target,
// monitor, and replica hellos are rejected with a retriable ack
// (pools keep probing and fail over elsewhere) until Promote. Query
// sessions pass through — the standby's recovered state is readable.
func (s *Server) SetStandby(on bool) { s.standby.Store(on) }

// Standby reports whether the server is an unpromoted standby.
func (s *Server) Standby() bool { return s.standby.Load() }

// Promote clears the standby gate: the server starts accepting
// reporter, monitor, and replica sessions, serving them from the state
// the replication stream built.
func (s *Server) Promote() {
	if s.standby.CompareAndSwap(true, false) {
		s.logf("poet server: promoted; accepting sessions")
	}
}

// Draining reports whether Drain has begun. Readiness probes consult it
// so a draining collector advertises not-ready.
func (s *Server) Draining() bool { return s.drainFlag.Load() }

// Drain performs an orderly shutdown: new sessions are rejected with a
// retriable ack, every connected peer is sent a drain notice (pooled
// clients fail over immediately instead of waiting for dead-peer
// timeouts; single-endpoint peers just keep their session until the End
// frame), reporter acks keep flowing while connected targets flush,
// and — once the targets have left, the collector has delivered its
// backlog, and any attached replica has confirmed the full stream, or
// wait has elapsed — the server closes gracefully (monitor queues
// drained, End frames sent). wait <= 0 uses DefaultDrainWait.
func (s *Server) Drain(wait time.Duration) error {
	if !s.drainFlag.CompareAndSwap(false, true) {
		return nil
	}
	if wait <= 0 {
		wait = DefaultDrainWait
	}
	s.drains.Add(1)
	s.tel.drains.Inc()
	s.logf("poet server: draining (up to %v)", wait)
	close(s.drainCh)
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		if s.targetConnCount.Load() == 0 && s.collector.Drained() &&
			s.collector.replWait(s.collector.IngestCount(), 0) {
			break
		}
		time.Sleep(overloadPoll)
	}
	return s.Close()
}

// DefaultDrainWait bounds how long Drain waits for targets to flush and
// leave before closing anyway.
const DefaultDrainWait = 5 * time.Second

// abort tears down the server without any of the graceful-shutdown
// courtesies — no drain notices, no monitor queue flush, no End frames:
// connections are severed first, then handlers are collected. It is the
// in-process stand-in for SIGKILL, used by the failover tests to
// simulate a primary crash without a child process.
func (s *Server) abort() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if !already {
		close(s.closing)
	}
	s.serveWG.Wait()
	s.wg.Wait()
}

// ---------------------------------------------------------------------
// Follower side: the Replicator client.

// ReplicaOption configures FollowPrimary.
type ReplicaOption func(*replCfg)

type replCfg struct {
	reconnectBudget time.Duration
	backoffBase     time.Duration
	backoffMax      time.Duration
	heartbeat       time.Duration
	peerTimeout     time.Duration
	dialTimeout     time.Duration
	writeTimeout    time.Duration
	logf            func(string, ...any)
}

// defaultReplicaBudget is deliberately shorter than the client default:
// the standby and primary share a failure domain boundary the clients
// wait behind — promotion must happen while reporter and monitor pools
// still have reconnect budget left to reach the promoted standby.
const defaultReplicaBudget = 10 * time.Second

func defaultReplCfg() replCfg {
	return replCfg{
		reconnectBudget: defaultReplicaBudget,
		backoffBase:     defaultBackoffBase,
		backoffMax:      defaultBackoffMax,
		heartbeat:       defaultHeartbeat,
		peerTimeout:     defaultPeerTimeout,
		dialTimeout:     defaultDialTimeout,
		writeTimeout:    defaultWriteTimeout,
		logf:            func(string, ...any) {},
	}
}

// WithReplicaReconnect bounds the cumulative backoff spent redialing the
// primary per outage; exhausting it declares the primary dead (the
// Replicator finishes with an ErrStreamInterrupted-wrapping error, the
// standby's cue to promote).
func WithReplicaReconnect(budget time.Duration) ReplicaOption {
	return func(c *replCfg) { c.reconnectBudget = budget }
}

// WithReplicaHeartbeat sets the confirmation/keep-alive cadence toward
// the primary and scales the dead-peer timeout to 5x.
func WithReplicaHeartbeat(d time.Duration) ReplicaOption {
	return func(c *replCfg) {
		if d > 0 {
			c.heartbeat = d
			c.peerTimeout = 5 * d
		}
	}
}

// WithReplicaPeerTimeout overrides how long the replica waits for a
// record or heartbeat before declaring the connection dead.
func WithReplicaPeerTimeout(d time.Duration) ReplicaOption {
	return func(c *replCfg) {
		if d > 0 {
			c.peerTimeout = d
		}
	}
}

// WithReplicaBackoff overrides the reconnect backoff schedule.
func WithReplicaBackoff(base, max time.Duration) ReplicaOption {
	return func(c *replCfg) { c.backoffBase, c.backoffMax = base, max }
}

// WithReplicaLog routes replication diagnostics to logf.
func WithReplicaLog(logf func(string, ...any)) ReplicaOption {
	return func(c *replCfg) {
		if logf != nil {
			c.logf = logf
		}
	}
}

// ReplicatorStats are a follower's cumulative replication counters.
type ReplicatorStats struct {
	// Applied counts event records applied to the local collector.
	Applied int
	// Head is the primary's last reported ingest count.
	Head int
	// Lag is Head - Applied, clamped at zero.
	Lag int
	// Reconnects counts successful session re-establishments.
	Reconnects int
}

// Replicator tails a primary's record stream into a local collector,
// keeping a warm standby one promotion away. It applies records through
// the public Report/RegisterTrace path — duplicates after a resume are
// absorbed as stale no-ops, and the local WAL (when the collector is
// durable) logs everything, so a crashed standby recovers and resumes
// from its exact applied offset.
type Replicator struct {
	addr string
	c    *Collector
	cfg  replCfg

	mu         sync.Mutex
	conn       net.Conn
	wake       chan struct{} // current connection's acker wake signal
	head       int
	reconnects int
	stopped    bool
	err        error

	stopCh chan struct{}
	done   chan struct{}
}

// FollowPrimary connects to the primary at addr as a replica and starts
// tailing its record stream into c. The initial dial and handshake are
// synchronous (a misconfigured primary fails fast); subsequent outages
// are ridden out by the reconnect budget. The caller decides what
// finishing means: watch Done and classify Err — ErrPrimaryDrained or
// an ErrStreamInterrupted wrap mean "promote", a terminal
// ErrSessionRejected means the pairing is wrong, nil means Stop was
// called (manual promotion).
func FollowPrimary(addr string, c *Collector, opts ...ReplicaOption) (*Replicator, error) {
	cfg := defaultReplCfg()
	for _, o := range opts {
		o(&cfg)
	}
	r := &Replicator{
		addr:   addr,
		c:      c,
		cfg:    cfg,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	conn, dec, err := r.connect()
	if err != nil {
		return nil, fmt.Errorf("poet replica: %w", err)
	}
	go r.run(conn, dec)
	return r, nil
}

// connect dials the primary and completes the replica handshake,
// resuming from the local collector's ingest count.
func (r *Replicator) connect() (net.Conn, *gob.Decoder, error) {
	conn, err := net.DialTimeout("tcp", r.addr, r.cfg.dialTimeout)
	if err != nil {
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	enc := gob.NewEncoder(conn)
	_ = conn.SetWriteDeadline(time.Now().Add(r.cfg.writeTimeout))
	applied := r.c.IngestCount()
	if err := enc.Encode(hello{Magic: wireMagic, Role: roleReplica, ReplicaFrom: applied}); err != nil {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	dec := gob.NewDecoder(conn)
	hsTimeout := r.cfg.peerTimeout
	if hsTimeout < minHandshakeTimeout {
		hsTimeout = minHandshakeTimeout
	}
	_ = conn.SetReadDeadline(time.Now().Add(hsTimeout))
	var ack helloAck
	if err := dec.Decode(&ack); err != nil {
		_ = conn.Close()
		return nil, nil, fmt.Errorf("hello ack: %w", err)
	}
	if !ack.OK {
		_ = conn.Close()
		if ack.Retry {
			return nil, nil, fmt.Errorf("primary not accepting replicas yet: %s", ack.Error)
		}
		return nil, nil, fmt.Errorf("%w: %s", ErrSessionRejected, ack.Error)
	}
	wake := make(chan struct{}, 1)
	r.mu.Lock()
	r.conn = conn
	r.wake = wake
	r.mu.Unlock()
	// Confirmation sender for this connection: an ack immediately after
	// each applied burst (the barrier's latency), heartbeats when idle.
	go r.acker(conn, enc, wake)
	return conn, dec, nil
}

// signalAck wakes the current connection's acker; buffered so the apply
// loop never blocks.
func (r *Replicator) signalAck() {
	r.mu.Lock()
	wake := r.wake
	r.mu.Unlock()
	select {
	case wake <- struct{}{}:
	default:
	}
}

// acker streams replicaAck frames on one connection until it dies.
func (r *Replicator) acker(conn net.Conn, enc *gob.Encoder, wake chan struct{}) {
	t := time.NewTimer(r.cfg.heartbeat)
	defer t.Stop()
	last := -1
	for {
		hb := false
		select {
		case <-wake:
		case <-t.C:
			t.Reset(r.cfg.heartbeat)
			hb = true
		case <-r.stopCh:
			return
		}
		applied := r.c.IngestCount()
		if applied == last && !hb {
			continue
		}
		_ = conn.SetWriteDeadline(time.Now().Add(r.cfg.writeTimeout))
		if err := enc.Encode(&replicaAck{Applied: applied, Heartbeat: hb && applied == last}); err != nil {
			_ = conn.Close()
			return
		}
		last = applied
		if !hb {
			backoff.ResetTimer(t, r.cfg.heartbeat)
		}
	}
}

// run is the replica's session loop: apply the stream, reconnect on
// transport faults, finish on drain, stop, terminal rejection, or
// budget exhaustion.
func (r *Replicator) run(conn net.Conn, dec *gob.Decoder) {
	defer close(r.done)
	for {
		cause := r.session(conn, dec)
		_ = conn.Close()
		if errors.Is(cause, ErrPrimaryDrained) {
			r.finish(ErrPrimaryDrained)
			return
		}
		if r.isStopped() {
			r.finish(nil)
			return
		}
		if cause != nil && !isTransport(cause) {
			r.finish(cause)
			return
		}
		c, d, err := r.reconnect(cause)
		if err != nil {
			r.finish(err)
			return
		}
		if c == nil {
			// Stopped mid-backoff: reconnect bailed without a connection.
			r.finish(nil)
			return
		}
		conn, dec = c, d
	}
}

// isTransport reports whether cause is worth redialing: anything except
// a divergence the stream itself reported (apply errors, protocol
// violations) is.
func isTransport(err error) bool {
	var de *divergenceError
	return !errors.As(err, &de)
}

// divergenceError marks causes that redialing cannot fix: the local
// collector refused a record the primary ingested.
type divergenceError struct{ err error }

func (d *divergenceError) Error() string { return d.err.Error() }
func (d *divergenceError) Unwrap() error { return d.err }

// session applies one connection's stream until it ends.
func (r *Replicator) session(conn net.Conn, dec *gob.Decoder) error {
	for {
		_ = conn.SetReadDeadline(time.Now().Add(r.cfg.peerTimeout))
		var msg wireMsg
		if err := dec.Decode(&msg); err != nil {
			if isTimeout(err) {
				r.cfg.logf("poet replica: no record or heartbeat from %s in %v; reconnecting", r.addr, r.cfg.peerTimeout)
			}
			return err
		}
		if msg.Head > 0 {
			r.mu.Lock()
			if msg.Head > r.head {
				r.head = msg.Head
			}
			r.mu.Unlock()
		}
		switch {
		case msg.Drain, msg.End:
			return ErrPrimaryDrained
		case msg.Heartbeat:
			r.signalAck() // keep our side of the liveness conversation
		case msg.Trace != nil:
			r.c.RegisterTrace(msg.Trace.Name)
		case msg.Shard != nil:
			e := fromWire(msg.Shard)
			if err := r.c.SupplyRemoteSend(msg.Shard.MsgID, e.ID, e.VC); err != nil {
				// The primary applied this remote send; a local refusal
				// (e.g. sharding not enabled here) is a configuration
				// divergence redialing cannot fix.
				return &divergenceError{fmt.Errorf("poet replica: applying remote send %d: %w", msg.Shard.MsgID, err)}
			}
			r.signalAck()
		case msg.Raw != nil:
			err := r.c.Report(*msg.Raw)
			if err != nil && !errors.Is(err, ErrStaleEvent) {
				// The primary ingested this record; a local refusal means
				// the two collectors have diverged (or the local disk
				// died). Redialing replays the same record — surface it.
				return &divergenceError{fmt.Errorf("poet replica: applying %s/%d: %w", msg.Raw.Trace, msg.Raw.Seq, err)}
			}
			r.signalAck()
		}
	}
}

// reconnect redials the primary with backoff until the budget is
// exhausted.
func (r *Replicator) reconnect(cause error) (net.Conn, *gob.Decoder, error) {
	if r.cfg.reconnectBudget <= 0 {
		return nil, nil, fmt.Errorf("poet replica: %w (cause: %v; reconnection disabled)", ErrStreamInterrupted, cause)
	}
	bo := backoff.New(r.cfg.backoffBase, r.cfg.backoffMax)
	var slept time.Duration
	lastErr := cause
	for {
		if r.isStopped() {
			return nil, nil, nil // run() notices stopped and finishes nil
		}
		conn, dec, err := r.connect()
		if err == nil {
			r.mu.Lock()
			r.reconnects++
			r.mu.Unlock()
			r.cfg.logf("poet replica: resumed replication from %s at offset %d", r.addr, r.c.IngestCount())
			return conn, dec, nil
		}
		if errors.Is(err, ErrSessionRejected) {
			return nil, nil, err
		}
		lastErr = err
		d := bo.Next()
		if slept+d > r.cfg.reconnectBudget {
			return nil, nil, fmt.Errorf("poet replica: %w; primary unreachable for %v (last error: %v)", ErrStreamInterrupted, r.cfg.reconnectBudget, lastErr)
		}
		slept += d
		if !backoff.Sleep(d, r.stopCh) {
			return nil, nil, nil
		}
	}
}

func (r *Replicator) isStopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}

func (r *Replicator) finish(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Stop detaches from the primary (manual promotion, e.g. SIGUSR1). The
// caller should wait on Done before serving.
func (r *Replicator) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	conn := r.conn
	r.mu.Unlock()
	close(r.stopCh)
	if conn != nil {
		_ = conn.Close()
	}
}

// Done is closed when the Replicator has stopped following, for any
// reason; Err then says why.
func (r *Replicator) Done() <-chan struct{} { return r.done }

// Err returns why following ended: nil (Stop was called),
// ErrPrimaryDrained (clean handoff), an error wrapping
// ErrStreamInterrupted (primary presumed dead — promote), or a terminal
// ErrSessionRejected wrap (misconfigured pairing — do not promote).
func (r *Replicator) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Stats returns the follower-side replication counters.
func (r *Replicator) Stats() ReplicatorStats {
	r.mu.Lock()
	head, rec := r.head, r.reconnects
	r.mu.Unlock()
	applied := r.c.IngestCount()
	lag := head - applied
	if lag < 0 {
		lag = 0
	}
	return ReplicatorStats{Applied: applied, Head: head, Lag: lag, Reconnects: rec}
}
