package poet

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// Wire protocol v2 ("OCEP-POET-2"): every connection opens with a hello
// naming its role; the server answers target and monitor hellos with a
// helloAck (query connections keep their request/response framing).
// After the handshake:
//
//   - target connections stream targetMsg frames (events or idle
//     heartbeats) and receive periodic serverAck frames carrying the
//     highest contiguous (trace, seq) the collector has ingested — the
//     acks double as server-side heartbeats;
//   - monitor connections receive wireMsg frames: trace announcements,
//     events, idle heartbeats, and an explicit End frame on graceful
//     shutdown, so an abrupt peer death is distinguishable from a clean
//     end of stream.
//
// Reconnecting peers resume: a target hello names the traces it is
// retransmitting (the helloAck returns the server's ack for each, so
// already-ingested events are pruned before replay), and a monitor hello
// carries ResumeFrom, the number of linearized events already received,
// so the server replays only the suffix. Everything is gob-encoded
// through a per-connection frame buffer that is flushed when a batch of
// frames is drained (frame.go); the bytes are those of a bare encoder on
// the connection.
//
// Compatibility: the magic bump from OCEP-POET-1 is deliberate — v1
// peers did not read a helloAck and had no ack/heartbeat/resume frames,
// so the server rejects them at the handshake instead of desynchronizing
// mid-stream.

// Connection roles.
const (
	roleTarget  = "target"
	roleMonitor = "monitor"
	// roleReplica is a warm-standby collector tailing this server's
	// ingestion-ordered record stream (events plus explicit trace
	// registrations) to keep an identical collector one failover away.
	roleReplica = "replica"
	// roleShard is a peer shard tailing this server's cross-shard export
	// log: the stamped send events other shards need before they can
	// deliver receives whose causal past lives here.
	roleShard = "shard"
)

type hello struct {
	Magic string
	Role  string
	// ResumeFrom (monitor role) is the number of linearized events the
	// client has already received; the server replays from that offset.
	ResumeFrom int
	// Traces (target role) names the traces the reporter has unacked
	// events for; the helloAck returns the server's ack for each.
	Traces []string
	// DeltaVC (monitor role) advertises that the client can decode
	// delta-encoded vector timestamps. The server echoes it in the
	// helloAck when it agrees; either side left at false keeps the
	// connection on dense clocks. gob ignores unknown fields, so v2
	// peers that predate the flag negotiate dense without a magic bump.
	DeltaVC bool
	// ReplicaFrom (replica role) is the number of event records the
	// replica has already applied; the server replays the record stream
	// from just past that point (trace records in the skipped prefix
	// were applied strictly in order, so they need no replay). Like
	// DeltaVC, it is a new-in-struct field: no magic bump.
	ReplicaFrom int
}

const wireMagic = "OCEP-POET-2"

// wireMagicV1 is recognized only to produce a targeted rejection.
const wireMagicV1 = "OCEP-POET-1"

// helloAck is the server's handshake response to target and monitor
// hellos.
type helloAck struct {
	OK    bool
	Error string
	// Acks (target role) is the server's contiguous ingest position for
	// each trace named in the hello.
	Acks []traceAck
	// DeltaVC confirms delta-encoded timestamps for this monitor
	// session. False from a server that predates the flag (gob zeroes
	// missing fields), so the client falls back to dense.
	DeltaVC bool
	// Retry marks a rejection as retriable: the server is a standby
	// awaiting promotion or is draining, so the same hello may succeed
	// later (or at another endpoint of the pool). Terminal rejections —
	// a resume offset the collector cannot honor — leave it false, and
	// clients surface those instead of rotating endpoints past them.
	Retry bool
}

// traceAck is the highest seq s such that events 1..s of the trace have
// all been ingested (delivered or buffered awaiting causal partners).
type traceAck struct {
	Trace string
	Seq   int
}

// targetMsg is one target-to-server frame: an event, or a bare idle
// heartbeat.
type targetMsg struct {
	Event     *RawEvent
	Heartbeat bool
}

// serverAck is one server-to-target frame. A frame with unchanged Acks
// doubles as a heartbeat. A non-empty Err reports a hard event rejection
// (the event is malformed, not merely stale); the server closes the
// connection after sending it, and the reporter surfaces the error
// instead of retransmitting the poison event forever.
type serverAck struct {
	Acks []traceAck
	Err  string
	// Drain announces an orderly shutdown: the server keeps acking what
	// it has but wants no new sessions. A reporter with alternative
	// endpoints fails over immediately instead of waiting for the
	// connection to die; a single-endpoint reporter ignores the notice.
	Drain bool
}

// wireMsg is one server-to-monitor (and server-to-replica) message:
// exactly one of Trace/Event/Raw/Heartbeat/End/Drain is set (Head rides
// along on replica frames).
type wireMsg struct {
	Trace *wireTrace
	Event *wireEvent
	// Heartbeat marks an idle keep-alive frame.
	Heartbeat bool
	// End marks a graceful end of stream (server shutdown). Absent an
	// End frame, a broken connection is an interruption, never a clean
	// EOF.
	End bool
	// Raw is one ingestion-ordered event record on a replica session
	// (monitor sessions carry delivered events as Event instead).
	Raw *RawEvent
	// Drain announces an orderly shutdown ahead of the End frame.
	// Pooled monitors fail over immediately; a replica treats it as the
	// primary's clean handoff and promotes.
	Drain bool
	// Head, on replica-session frames, is the server's current ingest
	// count (event records), letting the replica compute its lag even
	// while the stream is idle. On shard-session frames it is the export
	// log length instead.
	Head int
	// Shard is one cross-shard export record: a stamped send event
	// another shard may need to deliver a receive. Only the identity,
	// timestamp, and MsgID fields are meaningful; the timestamp travels
	// dense or delta-encoded exactly like monitor frames. Shard records
	// also appear on replica sessions, placed at the position the
	// primary applied them, so a standby rebuilds the identical
	// linearization. New-in-struct gob field: no magic bump.
	Shard *wireEvent
}

// replicaAck is one replica-to-server frame: the number of event
// records the replica has durably applied (a bare heartbeat when
// nothing advanced). The server's replication barrier releases reporter
// acks and monitor sends only up to the confirmed position.
type replicaAck struct {
	Applied   int
	Heartbeat bool
}

// wireTrace announces a trace's ID and name before its first event.
type wireTrace struct {
	ID   int
	Name string
}

// wireEvent is a delivered event in transit. The timestamp travels in
// exactly one of two spellings, fixed per connection at the handshake:
//
//   - dense (DeltaVC not negotiated): VC carries the full vector;
//   - delta (DeltaVC negotiated): VCTr/VCN carry only the entries whose
//     value differs from the previous event sent on this connection,
//     including explicit zero values for entries that vanished (the
//     linearization interleaves traces, so timestamps are not
//     per-component monotone along the stream). The baseline is the
//     all-zero vector at handshake time, so the first event's delta is
//     its full set of nonzero entries; VCFull marks that frame so a
//     desynchronized decoder fails loudly instead of mis-stamping.
//
// Reconnect/resume safety falls out of the handshake reset: every
// (re)connection re-runs the hello, both sides restart from the zero
// baseline, and replayed suffixes are re-encoded fresh.
type wireEvent struct {
	Trace, Index               int
	Kind                       event.Kind
	Type, Text                 string
	VC                         vclock.VC
	PartnerTrace, PartnerIndex int
	// VCTr/VCN are the delta entries: parallel (trace, new value) pairs.
	VCTr, VCN []int32
	// VCFull marks the first frame of a connection's delta stream (a
	// delta against the all-zero baseline).
	VCFull bool
	// MsgID identifies the message a cross-shard export record's send
	// belongs to; zero on monitor frames. New-in-struct gob field: no
	// magic bump.
	MsgID uint64
}

func toWire(e *event.Event) *wireEvent {
	return &wireEvent{
		Trace:        int(e.ID.Trace),
		Index:        e.ID.Index,
		Kind:         e.Kind,
		Type:         e.Type,
		Text:         e.Text,
		VC:           denseView(e.VC),
		PartnerTrace: int(e.Partner.Trace),
		PartnerIndex: e.Partner.Index,
	}
}

func fromWire(w *wireEvent) *event.Event {
	return &event.Event{
		ID:      event.ID{Trace: event.TraceID(w.Trace), Index: w.Index},
		Kind:    w.Kind,
		Type:    w.Type,
		Text:    w.Text,
		VC:      vclock.VC(w.VC),
		Partner: event.ID{Trace: event.TraceID(w.PartnerTrace), Index: w.PartnerIndex},
	}
}

// denseView returns a dense read-only view of c: the clock itself when
// it is already dense (stamps are immutable once delivered, so sharing
// is safe for encoding), a dense copy otherwise.
func denseView(c vclock.Clock) vclock.VC {
	if v, ok := c.(vclock.VC); ok {
		return v
	}
	return vclock.DenseOf(c)
}

// toWireDelta is toWire with the timestamp delta-encoded against d's
// baseline instead of carried as a full vector.
func toWireDelta(e *event.Event, d *deltaEncoder) *wireEvent {
	w := &wireEvent{
		Trace:        int(e.ID.Trace),
		Index:        e.ID.Index,
		Kind:         e.Kind,
		Type:         e.Type,
		Text:         e.Text,
		PartnerTrace: int(e.Partner.Trace),
		PartnerIndex: e.Partner.Index,
	}
	d.encode(e.VC, w)
	return w
}

// deltaEncoder turns event timestamps into per-connection deltas. It
// lives on the server side of one monitor connection; its baseline is
// the timestamp of the previous event encoded on that connection
// (all-zero after the handshake).
type deltaEncoder struct {
	base vclock.VC
	sent bool
}

// encode fills w's delta fields with the entries of vc that differ from
// the baseline and advances the baseline. Entry order is two sorted
// runs (changed/new entries, then vanished ones); the decoder applies
// entries independently, so order is irrelevant to correctness.
func (d *deltaEncoder) encode(vc vclock.Clock, w *wireEvent) {
	w.VCFull = !d.sent
	d.sent = true
	if vc != nil {
		vc.Range(func(t int, n int32) bool {
			if int32(d.base.Get(t)) != n {
				w.VCTr = append(w.VCTr, int32(t))
				w.VCN = append(w.VCN, n)
			}
			return true
		})
	}
	d.base.Range(func(t int, _ int32) bool {
		if vclockGet(vc, t) == 0 {
			w.VCTr = append(w.VCTr, int32(t))
			w.VCN = append(w.VCN, 0)
		}
		return true
	})
	for i, t := range w.VCTr {
		d.base = d.base.Set(int(t), w.VCN[i])
	}
}

func vclockGet(c vclock.Clock, t int) int {
	if c == nil {
		return 0
	}
	return c.Get(t)
}

// byteCounter is an io.Writer that only counts.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

// MeasureWire gob-encodes evs exactly as one monitor session would —
// dense or delta-encoded timestamps — and reports the encoded bytes and
// the number of timestamp entries shipped. The delta variant buffers
// its stream, decodes it back, and verifies every reconstructed
// timestamp against the original, so a measurement run doubles as a
// codec differential; the dense variant streams into a pure counter
// (a dense stream at tens of thousands of traces is too large to hold).
// Supports the -tracescale experiment; not on the serving path.
func MeasureWire(evs []*event.Event, delta bool) (wireBytes int64, vcEntries int, err error) {
	if !delta {
		var bc byteCounter
		enc := gob.NewEncoder(&bc)
		for _, e := range evs {
			w := toWire(e)
			vcEntries += len(w.VC)
			if err := enc.Encode(&wireMsg{Event: w}); err != nil {
				return bc.n, vcEntries, err
			}
		}
		return bc.n, vcEntries, nil
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	denc := &deltaEncoder{}
	for _, e := range evs {
		w := toWireDelta(e, denc)
		vcEntries += len(w.VCTr)
		if err := enc.Encode(&wireMsg{Event: w}); err != nil {
			return int64(buf.Len()), vcEntries, err
		}
	}
	wireBytes = int64(buf.Len())
	dec := gob.NewDecoder(&buf)
	ddec := &deltaDecoder{}
	for _, e := range evs {
		var msg wireMsg
		if err := dec.Decode(&msg); err != nil {
			return wireBytes, vcEntries, fmt.Errorf("poet: measure decode: %w", err)
		}
		vc, err := ddec.decode(msg.Event)
		if err != nil {
			return wireBytes, vcEntries, err
		}
		if !vc.Equal(e.VC) {
			return wireBytes, vcEntries, fmt.Errorf("poet: delta codec diverged at %v: decoded %v, stamped %v", e.ID, vc, e.VC)
		}
	}
	return wireBytes, vcEntries, nil
}

// deltaDecoder reconstructs timestamps from per-connection deltas on
// the monitor client side. A fresh decoder is installed on every
// (re)connection, restoring the all-zero baseline the server restarts
// from.
type deltaDecoder struct {
	base vclock.VC
	seen bool
	// sparse selects the representation of the emitted stamps.
	sparse bool
}

// decode applies w's delta entries to the baseline and returns the
// event's timestamp as an independent clock.
func (d *deltaDecoder) decode(w *wireEvent) (vclock.Clock, error) {
	if !d.seen && !w.VCFull {
		return nil, fmt.Errorf("poet: delta-encoded event %d/%d without a baseline frame (decoder out of sync)", w.Trace, w.Index)
	}
	if w.VCFull {
		d.base = nil
	}
	d.seen = true
	for i, t := range w.VCTr {
		d.base = d.base.Set(int(t), w.VCN[i])
	}
	if d.sparse {
		return vclock.SparseOf(d.base), nil
	}
	return d.base.Clone(), nil
}
