package poet

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ocep/internal/backoff"
	"ocep/internal/event"
	"ocep/internal/telemetry"
)

// Server exposes a Collector over TCP: target processes connect to
// report raw events, monitor clients connect to receive the linearized
// stream (the POET server role of Section V-A).
//
// The v2 wire layer is fault-tolerant: target connections are
// periodically acknowledged (highest contiguous ingested (trace, seq)),
// stale retransmissions after a reporter reconnect are idempotent
// no-ops, monitor connections carry idle heartbeats and can resume a
// session from any linearization offset, and all reads and writes run
// under deadlines so a dead peer is detected instead of blocking a
// handler forever.
type Server struct {
	collector *Collector
	listener  net.Listener
	logf      func(format string, args ...any)

	monQueue  int
	monPolicy BackpressurePolicy

	ackInterval  time.Duration
	hbInterval   time.Duration
	peerTimeout  time.Duration
	writeTimeout time.Duration

	// closing is closed at the start of Close: monitor handlers drain
	// their queues, send the End frame, and exit before connections are
	// torn down, so a graceful shutdown is distinguishable from a crash.
	closing chan struct{}
	// drainCh is closed at the start of Drain: handlers push a drain
	// notice to their peers so pooled clients fail over immediately,
	// while sessions keep running until Close.
	drainCh   chan struct{}
	drainFlag atomic.Bool
	// standby gates an unpromoted warm standby: sessions are rejected
	// with a retriable ack until Promote (see replication.go).
	standby atomic.Bool
	// targetConnCount tracks live target sessions, so Drain can tell
	// when the reporters have flushed and left.
	targetConnCount atomic.Int64

	stale           atomic.Int64
	acksSent        atomic.Int64
	heartbeats      atomic.Int64
	targetResumes   atomic.Int64
	monitorResumes  atomic.Int64
	loadSheds       atomic.Int64
	monitorBytes    atomic.Int64
	vcEntriesSent   atomic.Int64
	deltaSessions   atomic.Int64
	replicaSessions atomic.Int64
	replicaEvents   atomic.Int64
	shardSessions   atomic.Int64
	shardRecords    atomic.Int64
	shardVCEntries  atomic.Int64
	drains          atomic.Int64
	// sheddingConns counts target handlers currently parked in the
	// overload retry loop; nonzero means the server is shedding load
	// (see Shedding, which readiness probes consult).
	sheddingConns atomic.Int64
	overloadWait  time.Duration
	// wire counts frames and socket writes on every server stream link.
	wire frameStats

	// tel mirrors the wire counters into a telemetry registry; all nil
	// (no-op) until InstrumentMetrics.
	tel serverMetrics

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
	monWG   sync.WaitGroup
	serveWG sync.WaitGroup
}

// monitorQueueSize is the default per-monitor delivery-queue depth. Under
// the default BackpressureDrop policy a monitor that falls this far
// behind the stream is disconnected rather than allowed to stall the
// collector; under BackpressureBlock ingestion throttles instead.
const monitorQueueSize = 1 << 16

// Wire-timing defaults; see SetWireTiming.
const (
	DefaultAckInterval = 250 * time.Millisecond
	DefaultHeartbeat   = time.Second
	DefaultPeerTimeout = 10 * time.Second
	// DefaultOverloadWait bounds how long a target handler parks waiting
	// for an overloaded collector to drain before it gives up on the
	// connection; see SetOverloadWait.
	DefaultOverloadWait = 5 * time.Second
	// overloadPoll is the cadence at which a shedding target handler
	// re-offers its refused event to the collector.
	overloadPoll = 5 * time.Millisecond
)

// SetMonitorQueue configures the per-monitor-connection delivery queue:
// depth bounds the queue (0 keeps the default), policy selects what a
// full queue does (BackpressureDrop, the default, disconnects the
// lagging monitor so its stream never has silent gaps; BackpressureBlock
// throttles ingestion until the monitor catches up). Call before Listen.
func (s *Server) SetMonitorQueue(depth int, policy BackpressurePolicy) {
	if depth > 0 {
		s.monQueue = depth
	}
	s.monPolicy = policy
}

// SetWireTiming tunes the fault-tolerance timers (zero keeps a
// default): ackInterval is the cadence of target acknowledgements
// (which double as server-to-target heartbeats), heartbeat is the idle
// keep-alive cadence on monitor streams, and peerTimeout is how long a
// target connection may stay silent (no event, no heartbeat) before it
// is declared dead. Call before Listen.
func (s *Server) SetWireTiming(ackInterval, heartbeat, peerTimeout time.Duration) {
	if ackInterval > 0 {
		s.ackInterval = ackInterval
	}
	if heartbeat > 0 {
		s.hbInterval = heartbeat
	}
	if peerTimeout > 0 {
		s.peerTimeout = peerTimeout
	}
}

// SetOverloadWait bounds how long a target handler sheds load — parking
// the connection and re-offering the refused event every few
// milliseconds — when the collector's admission control reports
// ErrOverloaded, before failing the connection. While parked, the
// reporter's bounded buffer absorbs the backpressure. Zero keeps
// DefaultOverloadWait. Call before Listen.
func (s *Server) SetOverloadWait(d time.Duration) {
	if d > 0 {
		s.overloadWait = d
	}
}

// Shedding reports whether any target connection is currently parked in
// the overload retry loop. Readiness probes use it to advertise
// not-ready while the collector is above its admission limits.
func (s *Server) Shedding() bool { return s.sheddingConns.Load() > 0 }

// WireStats are the server's cumulative fault-tolerance counters.
type WireStats struct {
	// StaleEvents counts retransmitted events ignored as idempotent
	// no-ops (ErrStaleEvent from the collector on the wire path).
	StaleEvents int
	// AcksSent counts serverAck frames sent to targets (counted as each
	// is handed to the connection).
	AcksSent int
	// Heartbeats counts idle keep-alive frames sent to monitors.
	Heartbeats int
	// TargetResumes counts target hellos that named resumed traces.
	TargetResumes int
	// MonitorResumes counts monitor hellos with a nonzero resume offset.
	MonitorResumes int
	// LoadSheds counts events the collector refused with ErrOverloaded
	// that the server shed back onto reporter buffers (parking the
	// connection until the backlog drained or the overload wait expired).
	LoadSheds int
	// MonitorBytes counts bytes written to monitor connections (frames,
	// heartbeats, and handshakes included).
	MonitorBytes int
	// VCEntriesSent counts vector-timestamp entries put on the wire to
	// monitors: the full dense length per event on dense connections,
	// only the changed entries on delta-negotiated ones. Divide by the
	// event count for the per-event timestamp cost the delta encoding
	// is there to shrink.
	VCEntriesSent int
	// DeltaSessions counts monitor sessions that negotiated
	// delta-encoded timestamps at the handshake.
	DeltaSessions int
	// RecoveryDiscarded counts WAL records discarded as torn or corrupt
	// by startup recovery (0 for a non-durable or cleanly started
	// server). See RecoveryStats.DiscardedRecords.
	RecoveryDiscarded int
	// ReplicaSessions counts accepted replica (warm-standby) sessions.
	ReplicaSessions int
	// ReplicaEvents counts event records streamed to replica sessions.
	ReplicaEvents int
	// ReplicationLag is the current number of ingested events not yet
	// confirmed by every attached replica (0 with none attached).
	ReplicationLag int
	// ShardSessions counts accepted peer-shard (cross-shard exchange)
	// sessions.
	ShardSessions int
	// ShardRecords counts export records streamed to peer shards.
	ShardRecords int
	// ShardVCEntries counts vector-timestamp entries sent on shard
	// sessions (changed entries on delta sessions, full vectors on dense
	// ones) — the wire cost of the cross-shard frontier.
	ShardVCEntries int
	// Drains counts Drain invocations (0 or 1 in practice: draining is
	// terminal).
	Drains int
	// Frames counts frames sent on server stream links (target acks,
	// monitor, replica and shard streams, handshakes included).
	Frames int
	// Flushes counts the socket writes that carried those frames: one
	// per drained batch, more when a batch outgrows the 4 KiB buffer.
	// Frames/Flushes is the links' coalescing factor.
	Flushes int
}

// serverMetrics are the wire layer's instruments. All fields are nil
// until InstrumentMetrics; writes are nil-safe no-ops.
type serverMetrics struct {
	targetConns    *telemetry.Counter
	monitorConns   *telemetry.Counter
	targetEvents   *telemetry.Counter
	acksSent       *telemetry.Counter
	heartbeats     *telemetry.Counter
	stale          *telemetry.Counter
	targetRes      *telemetry.Counter
	monitorRes     *telemetry.Counter
	peerTimeouts   *telemetry.Counter
	monOverflows   *telemetry.Counter
	loadSheds      *telemetry.Counter
	monitorBytes   *telemetry.Counter
	vcEntries      *telemetry.Counter
	deltaSess      *telemetry.Counter
	replicaConns   *telemetry.Counter
	replicaEvents  *telemetry.Counter
	shardConns     *telemetry.Counter
	shardRecords   *telemetry.Counter
	shardVCEntries *telemetry.Counter
	drains         *telemetry.Counter
}

// InstrumentMetrics registers the server's wire metrics with reg. Call
// before Listen; a nil registry leaves the server uninstrumented. The
// collector (and, when durable, the WAL) are instrumented separately
// via Collector.InstrumentMetrics.
func (s *Server) InstrumentMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.tel = serverMetrics{
		targetConns:    reg.Counter("poet_wire_target_conns_total", "Accepted target (reporter) connections."),
		monitorConns:   reg.Counter("poet_wire_monitor_conns_total", "Accepted monitor connections."),
		targetEvents:   reg.Counter("poet_wire_target_events_total", "Event frames received from targets (before ingestion; includes stale retransmits)."),
		acksSent:       reg.Counter("poet_wire_acks_sent_total", "serverAck frames sent to targets."),
		heartbeats:     reg.Counter("poet_wire_heartbeats_sent_total", "Idle keep-alive frames sent to monitors."),
		stale:          reg.Counter("poet_wire_stale_retransmits_total", "Retransmitted events absorbed as idempotent no-ops."),
		targetRes:      reg.Counter("poet_wire_target_resumes_total", "Target hellos that named resumed traces."),
		monitorRes:     reg.Counter("poet_wire_monitor_resumes_total", "Monitor hellos with a nonzero resume offset."),
		peerTimeouts:   reg.Counter("poet_wire_peer_timeouts_total", "Target connections declared dead after peer-timeout silence."),
		monOverflows:   reg.Counter("poet_wire_monitor_overflow_disconnects_total", "Monitors disconnected for overflowing their delivery queue."),
		loadSheds:      reg.Counter("poet_wire_load_sheds_total", "Events shed back onto reporter buffers after an ErrOverloaded refusal."),
		monitorBytes:   reg.Counter("poet_wire_monitor_bytes_total", "Bytes written to monitor connections (events, announcements, heartbeats, handshakes)."),
		vcEntries:      reg.Counter("poet_wire_vc_entries_total", "Vector-timestamp entries sent to monitors (full vectors on dense connections, changed entries on delta connections)."),
		deltaSess:      reg.Counter("poet_wire_delta_sessions_total", "Monitor sessions that negotiated delta-encoded timestamps."),
		replicaConns:   reg.Counter("poet_wire_replica_sessions_total", "Accepted replica (warm-standby) sessions."),
		replicaEvents:  reg.Counter("poet_wire_replica_events_total", "Event records streamed to replica sessions."),
		shardConns:     reg.Counter("poet_wire_shard_sessions_total", "Accepted peer-shard (cross-shard exchange) sessions."),
		shardRecords:   reg.Counter("poet_wire_shard_records_total", "Export records streamed to peer shards."),
		shardVCEntries: reg.Counter("poet_wire_shard_vc_entries_total", "Vector-timestamp entries sent on shard sessions (changed entries on delta sessions)."),
		drains:         reg.Counter("poet_wire_drains_total", "Drain invocations (orderly shutdowns announced to peers)."),
	}
	s.wire.telFrames = reg.Counter("poet_wire_frames_total", "Frames sent on server stream links (acks, monitor, replica and shard streams, handshakes).")
	s.wire.telFlushes = reg.Counter("poet_wire_flushes_total", "Socket writes on server stream links: one per drained batch of frames, more when a batch outgrows the 4 KiB buffer.")
	reg.GaugeFunc("poet_wire_shedding_connections", "Target connections currently parked in the overload retry loop.", func() int64 {
		return s.sheddingConns.Load()
	})
	reg.GaugeFunc("poet_wire_replication_lag_events", "Ingested events not yet confirmed by every attached replica session (0 with none attached).", func() int64 {
		return int64(s.collector.ReplicationStats().Lag)
	})
	reg.GaugeFunc("poet_wire_draining", "1 while the server is draining, 0 otherwise.", func() int64 {
		if s.Draining() {
			return 1
		}
		return 0
	})
}

// WireStats returns the server's cumulative wire counters.
func (s *Server) WireStats() WireStats {
	st := WireStats{
		StaleEvents:     int(s.stale.Load()),
		AcksSent:        int(s.acksSent.Load()),
		Heartbeats:      int(s.heartbeats.Load()),
		TargetResumes:   int(s.targetResumes.Load()),
		MonitorResumes:  int(s.monitorResumes.Load()),
		LoadSheds:       int(s.loadSheds.Load()),
		MonitorBytes:    int(s.monitorBytes.Load()),
		VCEntriesSent:   int(s.vcEntriesSent.Load()),
		DeltaSessions:   int(s.deltaSessions.Load()),
		ReplicaSessions: int(s.replicaSessions.Load()),
		ReplicaEvents:   int(s.replicaEvents.Load()),
		ReplicationLag:  s.collector.ReplicationStats().Lag,
		ShardSessions:   int(s.shardSessions.Load()),
		ShardRecords:    int(s.shardRecords.Load()),
		ShardVCEntries:  int(s.shardVCEntries.Load()),
		Drains:          int(s.drains.Load()),
		Frames:          int(s.wire.frames.Load()),
		Flushes:         int(s.wire.flushes.Load()),
	}
	if d := s.collector.Durable(); d != nil {
		st.RecoveryDiscarded = int(d.Recovery().DiscardedRecords)
	}
	return st
}

// NewServer wraps a collector. Pass a logf (e.g. log.Printf) for
// connection diagnostics, or nil for silence.
func NewServer(c *Collector, logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		collector:    c,
		logf:         logf,
		conns:        make(map[net.Conn]struct{}),
		monQueue:     monitorQueueSize,
		monPolicy:    BackpressureDrop,
		ackInterval:  DefaultAckInterval,
		hbInterval:   DefaultHeartbeat,
		peerTimeout:  DefaultPeerTimeout,
		overloadWait: DefaultOverloadWait,
		writeTimeout: defaultWriteTimeout,
		closing:      make(chan struct{}),
		drainCh:      make(chan struct{}),
	}
}

// Listen starts accepting connections on addr ("host:port"; use ":0" for
// an ephemeral port) and returns the bound address. Serving happens on
// background goroutines until Close.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("poet server: listen: %w", err)
	}
	s.listener = ln
	s.serveWG.Add(1)
	go func() {
		defer s.serveWG.Done()
		s.acceptLoop()
	}()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			if err := s.handle(conn); err != nil && !errors.Is(err, net.ErrClosed) {
				s.logf("poet server: connection %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
	_ = conn.Close()
}

// Close stops the listener and tears down every live connection, waiting
// for the handlers to finish. Monitor connections end gracefully: their
// queues are drained and an explicit End frame is sent, so clients see a
// clean end of stream instead of an interruption.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	var err error
	if !already {
		if s.listener != nil {
			err = s.listener.Close()
		}
		close(s.closing)
	}
	// Let monitor handlers drain and say goodbye before the teardown;
	// their writes run under deadlines, so this wait is bounded.
	s.monWG.Wait()
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	s.serveWG.Wait()
	s.wg.Wait()
	return err
}

// countingWriter counts the bytes flowing to one connection into a
// server-wide atomic and (when instrumented) a telemetry counter.
type countingWriter struct {
	w     io.Writer
	total *atomic.Int64
	tel   *telemetry.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.total.Add(int64(n))
	cw.tel.Add(int64(n))
	return n, err
}

// newFrameWriter returns the frame writer of one server stream link,
// counted in the server's frame and flush totals.
func (s *Server) newFrameWriter(conn net.Conn, w io.Writer) *frameWriter {
	return newFrameWriter(conn, w, s.writeTimeout, &s.wire)
}

func (s *Server) handle(conn net.Conn) error {
	dec := gob.NewDecoder(conn)
	// A connection that never completes its hello must not pin a handler
	// goroutine forever.
	_ = conn.SetReadDeadline(time.Now().Add(s.peerTimeout))
	var h hello
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("reading hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if h.Magic != wireMagic {
		if h.Magic == wireMagicV1 {
			return fmt.Errorf("v1 peer rejected: this server speaks %s (the v2 handshake adds acks, resume, and heartbeats)", wireMagic)
		}
		return fmt.Errorf("bad magic %q", h.Magic)
	}
	// An unpromoted standby or a draining server takes no new sessions;
	// the rejection is marked retriable so endpoint pools rotate to the
	// live peer (or keep probing until promotion) instead of treating it
	// as terminal. Query sessions pass: read-only state stays readable.
	if h.Role == roleTarget || h.Role == roleMonitor || h.Role == roleReplica || h.Role == roleShard {
		reason := ""
		if s.Draining() {
			reason = "server is draining; no new sessions"
		} else if s.standby.Load() {
			reason = "standby awaiting promotion; not serving yet"
		}
		if reason != "" {
			_ = s.newFrameWriter(conn, nil).Send(&helloAck{Error: reason, Retry: true})
			return fmt.Errorf("rejected %s session: %s", h.Role, reason)
		}
	}
	switch h.Role {
	case roleTarget:
		return s.handleTarget(conn, dec, h)
	case roleMonitor:
		return s.handleMonitor(conn, h)
	case roleReplica:
		return s.handleReplica(conn, dec, h)
	case roleShard:
		return s.handleShard(conn, dec, h)
	case roleQuery:
		return s.handleQuery(conn, dec)
	default:
		return fmt.Errorf("unknown role %q", h.Role)
	}
}

// handleTarget ingests raw events until the connection closes or the
// peer times out. A background pump acknowledges the highest contiguous
// ingested (trace, seq) on every ack interval — the acks double as
// server-to-target heartbeats. Stale retransmissions (the product of a
// reporter replaying its unacked buffer after a reconnect) are ignored
// as idempotent no-ops; genuinely malformed events still hard-fail the
// connection, with the reason reported to the peer so it stops
// retransmitting the poison event.
func (s *Server) handleTarget(conn net.Conn, dec *gob.Decoder, h hello) error {
	s.tel.targetConns.Inc()
	s.targetConnCount.Add(1)
	defer s.targetConnCount.Add(-1)
	fw := s.newFrameWriter(conn, nil)

	// The handshake ack tells a resuming reporter what it may prune
	// before retransmitting.
	if err := fw.Send(&helloAck{OK: true, Acks: s.collector.acksFor(h.Traces)}); err != nil {
		return fmt.Errorf("hello ack: %w", err)
	}
	if len(h.Traces) > 0 {
		s.targetResumes.Add(1)
		s.tel.targetRes.Inc()
	}

	// Traces this connection has reported, for the ack pump.
	var seenMu sync.Mutex
	seen := make(map[string]bool, len(h.Traces))
	for _, n := range h.Traces {
		seen[n] = true
	}
	names := func() []string {
		seenMu.Lock()
		defer seenMu.Unlock()
		out := make([]string, 0, len(seen))
		for n := range seen {
			out = append(out, n)
		}
		return out
	}

	// sendAck counts an ack before writing it: a reporter that has
	// read the ack (and returned from Flush) must find it counted.
	sendAck := func(ack *serverAck) error {
		s.acksSent.Add(1)
		s.tel.acksSent.Inc()
		return fw.Send(ack)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(s.ackInterval)
		defer t.Stop()
		drain := s.drainCh
		for {
			select {
			case <-stop:
				return
			case <-drain:
				// Orderly shutdown: tell the reporter now, with the
				// current acks, so a pooled client peels off immediately
				// instead of waiting for the connection to die. Acks keep
				// flowing below while single-endpoint reporters flush.
				drain = nil
				if err := sendAck(&serverAck{Drain: true, Acks: s.collector.acksFor(names())}); err != nil {
					_ = conn.Close()
					return
				}
			case <-t.C:
				if err := sendAck(&serverAck{Acks: s.collector.acksFor(names())}); err != nil {
					_ = conn.Close() // unblock the decode loop
					return
				}
			}
		}
	}()

	for {
		_ = conn.SetReadDeadline(time.Now().Add(s.peerTimeout))
		var msg targetMsg
		if err := dec.Decode(&msg); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isTimeout(err) {
				s.tel.peerTimeouts.Inc()
				return fmt.Errorf("target silent for %v (no event or heartbeat); presumed dead", s.peerTimeout)
			}
			return fmt.Errorf("decoding raw event: %w", err)
		}
		if msg.Heartbeat {
			continue
		}
		if msg.Event == nil {
			return fmt.Errorf("empty target message")
		}
		raw := *msg.Event
		s.tel.targetEvents.Inc()
		seenMu.Lock()
		seen[raw.Trace] = true
		seenMu.Unlock()
		err := s.collector.Report(raw)
		if errors.Is(err, ErrOverloaded) {
			// Admission control refused the event: shed the load back onto
			// the reporter by parking this connection and re-offering the
			// event until the backlog drains. The reporter keeps the event
			// in its bounded unacked buffer the whole time (no ack covers
			// it), so nothing is lost; its own Report calls block once that
			// buffer fills, propagating the backpressure to the source.
			s.loadSheds.Add(1)
			s.tel.loadSheds.Inc()
			s.sheddingConns.Add(1)
			deadline := time.Now().Add(s.overloadWait)
			for errors.Is(err, ErrOverloaded) && time.Now().Before(deadline) {
				// The interruptible sleep doubles as the shutdown check: a
				// park must never outlive Close.
				if !backoff.Sleep(overloadPoll, s.closing) {
					s.sheddingConns.Add(-1)
					return nil
				}
				err = s.collector.Report(raw)
			}
			s.sheddingConns.Add(-1)
			if errors.Is(err, ErrOverloaded) {
				// The backlog never drained: a causal predecessor is likely
				// missing for good. Tell the peer before hanging up.
				_ = fw.Send(&serverAck{Err: err.Error()})
				return fmt.Errorf("shedding %s/%d: collector still overloaded after %v: %w",
					raw.Trace, raw.Seq, s.overloadWait, err)
			}
		}
		if err != nil {
			if errors.Is(err, ErrStaleEvent) {
				// A retransmit of something already ingested: the normal
				// aftermath of a reporter reconnect, not a fault. Dropping
				// it is exactly once delivery.
				s.stale.Add(1)
				s.tel.stale.Inc()
				s.logf("poet server: %s: ignoring stale retransmit %s/%d", conn.RemoteAddr(), raw.Trace, raw.Seq)
				continue
			}
			// Malformed beyond repair: tell the peer why before hanging up,
			// so it fails its Report instead of retransmitting forever.
			_ = fw.Send(&serverAck{Err: err.Error()})
			return fmt.Errorf("reporting: %w", err)
		}
	}
}

// handleMonitor streams the linearization to one client over the
// collector's batch delivery pipeline: an atomic replay of everything
// past the client's resume offset, then live deliveries in batches, with
// trace announcements interleaved before first use and idle heartbeats
// so the client can tell a quiet stream from a dead server. Under
// BackpressureDrop (the default) a monitor that falls monQueue events
// behind is disconnected — a wire stream must never have silent gaps
// (a reconnecting client heals the gap by resuming, which replays from
// its own offset); under BackpressureBlock ingestion throttles to the
// monitor instead. On server Close the queue is drained and an End
// frame marks the clean end of stream.
func (s *Server) handleMonitor(conn net.Conn, h hello) error {
	s.tel.monitorConns.Inc()
	s.monWG.Add(1)
	defer s.monWG.Done()

	// All monitor-bound frames go through a byte-counting writer below
	// the frame buffer, so the wire cost of the stream — and of the
	// timestamp encoding in particular — is observable as bytes that
	// reached the socket (WireStats.MonitorBytes,
	// poet_wire_monitor_bytes_total).
	fw := s.newFrameWriter(conn, &countingWriter{w: conn, total: &s.monitorBytes, tel: s.tel.monitorBytes})
	var lastWrite atomic.Int64
	writeMsg := func(msg any) error {
		err := fw.Send(msg)
		lastWrite.Store(time.Now().UnixNano())
		return err
	}

	// Validate the resume offset before subscribing. Delivered and the
	// retention trim point only grow; an offset rejected here would be
	// rejected by the subscription too, so check the trim first for the
	// better error message.
	if trimmed := s.collector.RetentionStats().TrimmedFrom; h.ResumeFrom >= 0 && h.ResumeFrom < trimmed {
		msg := fmt.Sprintf("cannot resume from offset %d: retention evicted events below %d; the requested suffix no longer exists",
			h.ResumeFrom, trimmed)
		_ = writeMsg(&helloAck{Error: msg})
		return fmt.Errorf("monitor %s: %s", conn.RemoteAddr(), msg)
	}
	if h.ResumeFrom < 0 || h.ResumeFrom > s.collector.Delivered() {
		msg := fmt.Sprintf("cannot resume from offset %d (delivered %d): this collector did not produce that stream",
			h.ResumeFrom, s.collector.Delivered())
		if d := s.collector.Durable(); d != nil {
			rec := d.Recovery()
			if rec.DiscardedRecords > 0 || rec.SnapshotTruncated {
				// A recovered server may legitimately be behind a client
				// that outlived it: say so, instead of implying the
				// client is confused.
				msg = fmt.Sprintf("cannot resume from offset %d: crash recovery rebuilt only %d events (%d WAL records discarded); the requested suffix no longer exists",
					h.ResumeFrom, s.collector.Delivered(), rec.DiscardedRecords)
			}
		}
		_ = writeMsg(&helloAck{Error: msg})
		return fmt.Errorf("monitor %s: %s", conn.RemoteAddr(), msg)
	}
	// Timestamp-encoding negotiation: the client advertised DeltaVC and
	// the echo in the ack seals it. The delta baseline starts at zero on
	// both sides at this handshake, so reconnects and resumed replays
	// are re-encoded from scratch — retransmitted suffixes never depend
	// on state from a dead connection.
	deltaVC := h.DeltaVC
	if err := writeMsg(&helloAck{OK: true, DeltaVC: deltaVC}); err != nil {
		return fmt.Errorf("hello ack: %w", err)
	}
	if deltaVC {
		s.deltaSessions.Add(1)
		s.tel.deltaSess.Inc()
	}
	if h.ResumeFrom > 0 {
		s.monitorResumes.Add(1)
		s.tel.monitorRes.Inc()
	}

	errc := make(chan error, 1)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
		_ = conn.Close() // unblock pending encodes
	}
	// pending and stats are touched only on the subscription's consumer
	// goroutine: announcements arrive before the batch that needs them.
	var pending []wireTrace
	denc := &deltaEncoder{}
	statsCh := make(chan func() DeliveryStats, 1)
	var stats func() DeliveryStats
	// dropCheck disconnects the client at the first dropped event. It
	// runs both before and after encoding each batch: the pre-check keeps
	// the emitted prefix gap-free (a drop that happened while the
	// previous batch was encoding must not be followed by post-gap
	// events), the post-check catches a drop during this batch's encode
	// without waiting for another batch to be cut.
	dropCheck := func() bool {
		if s.monPolicy != BackpressureDrop {
			return true
		}
		if st := stats(); st.Dropped > 0 {
			s.tel.monOverflows.Inc()
			fail(fmt.Errorf("monitor %s overflowed its %d-event queue; disconnected",
				conn.RemoteAddr(), s.monQueue))
			return false
		}
		return true
	}
	handler := func(batch []*event.Event) {
		if stats == nil {
			stats = <-statsCh
		}
		if !dropCheck() {
			return
		}
		if d := s.collector.Durable(); d != nil {
			// Durability barrier: never put an event on the wire before it
			// is on disk, or a crash would leave this monitor's resume
			// offset ahead of the recovered stream. Usually a no-op — the
			// ingestion path already synced these events.
			if err := d.barrier(); err != nil {
				fail(fmt.Errorf("durability barrier: %w", err))
				return
			}
		}
		// Replication barrier: never put an event on a monitor wire
		// before an attached replica has it, or a failover would leave
		// this monitor's resume offset ahead of the promoted standby's
		// stream. Lifts the moment no replica is attached.
		s.collector.replBarrier()
		// The batch and its pending announcements leave in one flush.
		err := fw.Batch(func(queue func(any) error) error {
			for i := range pending {
				if err := queue(&wireMsg{Trace: &pending[i]}); err != nil {
					return err
				}
			}
			for _, e := range batch {
				var w *wireEvent
				if deltaVC {
					// denc is touched only here, on the subscription's
					// consumer goroutine, so encoding order equals stream
					// order — which the delta baseline depends on.
					w = toWireDelta(e, denc)
					s.vcEntriesSent.Add(int64(len(w.VCTr)))
					s.tel.vcEntries.Add(int64(len(w.VCTr)))
				} else {
					w = toWire(e)
					s.vcEntriesSent.Add(int64(len(w.VC)))
					s.tel.vcEntries.Add(int64(len(w.VC)))
				}
				if err := queue(&wireMsg{Event: w}); err != nil {
					return err
				}
			}
			return nil
		})
		lastWrite.Store(time.Now().UnixNano())
		if err != nil {
			fail(fmt.Errorf("encoding to monitor: %w", err))
			return
		}
		pending = nil
		dropCheck()
	}
	sub, err := s.collector.SubscribeBatchReplayFrom(h.ResumeFrom, handler, AsyncOptions{
		QueueDepth: s.monQueue,
		Policy:     s.monPolicy,
		OnTrace: func(t event.TraceID, name string) {
			pending = append(pending, wireTrace{ID: int(t), Name: name})
		},
	})
	if err != nil {
		// Only reachable when a concurrent retention trim overtook the
		// offset between validation and subscription.
		return err
	}
	defer sub.Cancel()
	statsCh <- sub.Stats

	// Idle heartbeats: a quiet collector must still be distinguishable
	// from a dead server on the client side.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(s.hbInterval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if time.Since(time.Unix(0, lastWrite.Load())) < s.hbInterval {
					continue
				}
				if err := writeMsg(&wireMsg{Heartbeat: true}); err != nil {
					fail(fmt.Errorf("heartbeat to monitor: %w", err))
					return
				}
				s.heartbeats.Add(1)
			}
		}
	}()

	// Monitors never send after the hello; a background read doubles as
	// a close detector.
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 1)
		_, _ = conn.Read(buf)
		close(done)
	}()

	drain := s.drainCh
	for {
		select {
		case err := <-errc:
			return err
		case <-done:
			// Prefer a recorded failure over the close it provoked.
			select {
			case err := <-errc:
				return err
			default:
				return nil
			}
		case <-drain:
			// Advise the client to move to a healthy peer. Pooled
			// monitors fail over on the notice; single-endpoint clients
			// ignore it, so keep serving until End/close.
			drain = nil
			if err := writeMsg(&wireMsg{Drain: true}); err != nil {
				return fmt.Errorf("drain frame: %w", err)
			}
		case <-s.closing:
			// Graceful shutdown: drain the queue (Cancel flushes the handler)
			// and mark the clean end of stream.
			sub.Cancel()
			select {
			case err := <-errc:
				return err
			default:
			}
			if err := writeMsg(&wireMsg{End: true}); err != nil {
				return fmt.Errorf("end frame: %w", err)
			}
			return nil
		}
	}
}
