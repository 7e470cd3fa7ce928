package poet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// Wire protocol v2 ("OCEP-POET-2"): every connection opens with a hello
// naming its role; the server answers target, monitor, replica and
// shard hellos with a helloAck (query connections keep their
// request/response framing). After the handshake:
//
//   - target connections stream targetMsg frames (events or idle
//     heartbeats) and receive periodic serverAck frames carrying the
//     highest contiguous (trace, seq) the collector has ingested — the
//     acks double as server-side heartbeats;
//   - monitor connections receive wireMsg frames: trace announcements,
//     events, idle heartbeats, and an explicit End frame on graceful
//     shutdown, so an abrupt peer death is distinguishable from a clean
//     end of stream;
//   - replica and shard connections receive wireMsg record streams
//     (replication.go, shard.go).
//
// Reconnecting peers resume: a target hello names the traces it is
// retransmitting (the helloAck returns the server's ack for each, so
// already-ingested events are pruned before replay), and a monitor hello
// carries ResumeFrom, the number of linearized events already received,
// so the server replays only the suffix. Everything is gob-encoded
// through a per-connection frame buffer that is flushed when a batch of
// frames is drained (frame.go); the bytes are those of a bare encoder on
// the connection. The client half of every handshake and reconnect is
// one function and one loop (link.go).
//
// Every vector timestamp on the wire is delta-encoded (wireEvent). A
// hello advertises that its peer decodes deltas with DeltaVC; the server
// refuses a monitor, shard, replica or query hello without it — a
// terminal helloAck rejection, or a closed connection for the ack-less
// query role — so a peer that expects full vectors gets a named refusal,
// never frames it would decode wrong.
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
	// DeltaVC advertises that the client decodes delta-encoded vector
	// timestamps, the only spelling the server sends. Monitor, shard,
	// replica and query hellos without it are refused. A new-in-struct
	// gob field: v2 peers that predate it read as false.
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

// helloAck is the server's handshake response to target, monitor,
// replica and shard hellos.
type helloAck struct {
	OK    bool
	Error string
	// Acks (target role) is the server's contiguous ingest position for
	// each trace named in the hello.
	Acks []traceAck
	// DeltaVC confirms delta-encoded timestamps on monitor, shard and
	// replica sessions. A server that leaves it false would send full
	// vectors, so clients refuse its session.
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
	// timestamp, and MsgID fields are meaningful; the timestamp is
	// delta-encoded exactly like monitor frames. Shard records
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

// wireEvent is a delivered event in transit. Its timestamp is
// delta-encoded: VCTr/VCN carry only the entries whose value differs
// from the previous event sent on this connection, including explicit
// zero values for entries that vanished (the linearization interleaves
// traces, so timestamps are not per-component monotone along the
// stream). The baseline is the all-zero vector at handshake time, so
// the first event's delta is its full set of nonzero entries; VCFull
// marks that frame so a desynchronized decoder fails loudly instead of
// mis-stamping. A query response is encoded against a fresh baseline.
//
// Reconnect/resume safety falls out of the handshake reset: every
// (re)connection re-runs the hello, both sides restart from the zero
// baseline, and replayed suffixes are re-encoded fresh.
type wireEvent struct {
	Trace, Index               int
	Kind                       event.Kind
	Type, Text                 string
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

// toWireDelta converts e for the wire, delta-encoding its timestamp
// against d's baseline.
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

// event rebuilds the delivered event, stamped with vc (the timestamp a
// deltaDecoder reconstructed from w).
func (w *wireEvent) event(vc vclock.Clock) *event.Event {
	return &event.Event{
		ID:      event.ID{Trace: event.TraceID(w.Trace), Index: w.Index},
		Kind:    w.Kind,
		Type:    w.Type,
		Text:    w.Text,
		VC:      vc,
		Partner: event.ID{Trace: event.TraceID(w.PartnerTrace), Index: w.PartnerIndex},
	}
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

// MeasureWire gob-encodes evs exactly as one monitor session would and
// reports the encoded bytes and the number of timestamp entries shipped.
// It decodes the stream back and verifies every reconstructed timestamp
// against the original, so a measurement run doubles as a codec
// differential. Supports the -tracescale experiment; not on the serving
// path.
func MeasureWire(evs []*event.Event) (wireBytes int64, vcEntries int, err error) {
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

// errMalformedDelta reports a delta-encoded timestamp no encoder
// produces: mismatched index and value counts, a negative trace index,
// or an index above maxWireTrace. The decoder refuses such a frame
// before touching its baseline.
var errMalformedDelta = errors.New("poet: malformed delta timestamp")

// maxWireTrace is the largest trace index a delta frame may name. It
// bounds what one frame can make a decoder allocate (a dense baseline
// of 4*(maxWireTrace+1) bytes, 1 MiB) while leaving room for 262,144
// traces, more than 25 times the largest measured tier.
const maxWireTrace = 1<<18 - 1

// deltaDecoder reconstructs timestamps from per-connection deltas on
// the receiving side of a session. A fresh decoder is installed on every
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
	if len(w.VCTr) != len(w.VCN) {
		return nil, fmt.Errorf("%w: event %d/%d has %d trace indices and %d values", errMalformedDelta, w.Trace, w.Index, len(w.VCTr), len(w.VCN))
	}
	for _, t := range w.VCTr {
		if t < 0 || t > maxWireTrace {
			return nil, fmt.Errorf("%w: event %d/%d names trace index %d outside [0, %d]", errMalformedDelta, w.Trace, w.Index, t, maxWireTrace)
		}
	}
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
