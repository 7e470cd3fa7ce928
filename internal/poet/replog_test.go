package poet

// Tests for the collector's single in-memory copy per event: the
// replication log holds references that resolve back to the ingested
// records, and Dump rebuilds raw events from the delivered ones. Both
// must reproduce exactly what was ingested.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// refWorkload reports n events over three traces: sends, receives
// (some arriving before their send, so they are held), sync pairs,
// internal events carrying text and a message id, and — when remote is
// set, on a sharded collector — receives whose send comes from a peer
// shard. It returns every ingested raw event and the expected
// replication stream, in ingestion order.
func refWorkload(t *testing.T, c *Collector, n int, remote bool) (ingested []RawEvent, stream []repRecord) {
	t.Helper()
	seq := map[string]int{}
	next := func(trace string) int { seq[trace]++; return seq[trace] }
	report := func(raw RawEvent) {
		t.Helper()
		if err := c.Report(raw); err != nil {
			t.Fatalf("report %+v: %v", raw, err)
		}
		ingested = append(ingested, raw)
		stream = append(stream, repRecord{ref: repRef{n: 1}, Event: raw})
	}
	register := func(name string) {
		c.RegisterTrace(name)
		stream = append(stream, repRecord{Trace: name})
	}
	register("explicit")
	msg := uint64(0)
	for len(ingested) < n {
		msg++
		// A receive reported before its send is held until the send
		// arrives.
		recv := RawEvent{Trace: "p1", Seq: next("p1"), Kind: event.KindReceive, Type: "recv", MsgID: msg}
		report(recv)
		report(RawEvent{Trace: "p0", Seq: next("p0"), Kind: event.KindSend, Type: "send", Text: fmt.Sprint(msg), MsgID: msg})
		report(RawEvent{Trace: "p2", Seq: next("p2"), Kind: event.KindInternal, Type: "note", Text: "with id", MsgID: 1 << 40})
		msg++
		report(RawEvent{Trace: "sem", Seq: next("sem"), Kind: event.KindSyncRelease, Type: "release", MsgID: msg})
		report(RawEvent{Trace: "p2", Seq: next("p2"), Kind: event.KindSyncAcquire, Type: "acquire", MsgID: msg})
		if remote && len(ingested)%50 < 5 {
			msg++
			report(RawEvent{Trace: "p2", Seq: next("p2"), Kind: event.KindReceive, Type: "recv-remote", MsgID: msg})
			id := event.ID{Trace: 1, Index: int(msg)}
			vc := vclock.VC{0, int32(msg)}
			if err := c.SupplyRemoteSend(msg, id, vc); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, repRecord{ref: repRef{trace: remoteRefTrace}, Remote: shardExport{MsgID: msg, ID: id, VC: vc}})
		}
	}
	return ingested, stream
}

// resolvedStream resolves the collector's whole replication log, batch
// by batch, as a replica session does.
func resolvedStream(c *Collector) []repRecord {
	var out []repRecord
	for idx := 0; ; {
		recs, next, _, _ := c.replRecordsFrom(idx, nil)
		if len(recs) == 0 {
			return out
		}
		if len(recs) > replBatch {
			panic(fmt.Sprintf("batch of %d records exceeds replBatch", len(recs)))
		}
		out = append(out, recs...)
		idx = next
	}
}

// sameRecords compares resolved records by content (not by the
// reference that produced them).
func sameRecords(t *testing.T, what string, got, want []repRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ref.isEvent() != w.ref.isEvent() || g.ref.isRemote() != w.ref.isRemote() ||
			g.Trace != w.Trace || g.Event != w.Event || !reflect.DeepEqual(g.Remote, w.Remote) {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestHeldEventReferenceResolvesUnchangedByDelivery: a reference to an
// event held in pending resolves to the ingested raw event, and to the
// same raw event once delivery has moved it into the store.
func TestHeldEventReferenceResolvesUnchangedByDelivery(t *testing.T) {
	c := NewCollector()
	if err := c.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	ingested, want := refWorkload(t, c, 200, false)
	// Hold two more: an out-of-order event and a receive whose send has
	// not been reported.
	held := []RawEvent{
		{Trace: "p0", Seq: 1000, Kind: event.KindInternal, Type: "early", Text: "gap"},
		{Trace: "p3", Seq: 1, Kind: event.KindReceive, Type: "recv", Text: "orphan", MsgID: 1 << 50},
	}
	for _, raw := range held {
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
		want = append(want, repRecord{ref: repRef{n: 1}, Event: raw})
	}
	if got := c.Pending(); got != len(held) {
		t.Fatalf("pending = %d, want the %d held events", got, len(held))
	}
	sameRecords(t, "while held", resolvedStream(c), want)

	// Release both: fill p0's gap and report the orphan's send.
	for s := len(ingestedOn(ingested, "p0")) + 1; s < 1000; s++ {
		raw := RawEvent{Trace: "p0", Seq: s, Kind: event.KindInternal, Type: "fill"}
		if err := c.Report(raw); err != nil {
			t.Fatal(err)
		}
		want = append(want, repRecord{ref: repRef{n: 1}, Event: raw})
	}
	send := RawEvent{Trace: "p4", Seq: 1, Kind: event.KindSend, Type: "send", MsgID: 1 << 50}
	if err := c.Report(send); err != nil {
		t.Fatal(err)
	}
	want = append(want, repRecord{ref: repRef{n: 1}, Event: send})
	if !c.Drained() {
		t.Fatalf("%d events still pending", c.Pending())
	}
	sameRecords(t, "after delivery", resolvedStream(c), want)
}

func ingestedOn(raws []RawEvent, trace string) []RawEvent {
	var out []RawEvent
	for _, r := range raws {
		if r.Trace == trace {
			out = append(out, r)
		}
	}
	return out
}

// TestReplicaStreamBytesEqualIngestedSequence: the bytes a replica
// session receives are exactly the encoding of the ingested record
// sequence — trace registrations, events (delivered and held) and, on a
// sharded primary, remote-send records — across several resolution
// batches.
func TestReplicaStreamBytesEqualIngestedSequence(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		t.Run(fmt.Sprintf("sharded=%v", sharded), func(t *testing.T) {
			c := NewCollector()
			if err := c.EnableReplicationLog(); err != nil {
				t.Fatal(err)
			}
			if sharded {
				if err := c.EnableSharding(0, 2); err != nil {
					t.Fatal(err)
				}
			}
			_, stream := refWorkload(t, c, 3*replBatch, sharded)
			// One held event at the tail: its record resolves from pending.
			tail := RawEvent{Trace: "p1", Seq: 1 << 20, Kind: event.KindInternal, Type: "held"}
			if err := c.Report(tail); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, repRecord{ref: repRef{n: 1}, Event: tail})
			head := c.IngestCount()

			var want bytes.Buffer
			enc := gob.NewEncoder(&want)
			if err := enc.Encode(&helloAck{OK: true, DeltaVC: true}); err != nil {
				t.Fatal(err)
			}
			denc := &deltaEncoder{}
			remotes := 0
			for i := range stream {
				rec := &stream[i]
				msg := wireMsg{Head: head}
				switch {
				case rec.ref.isRemote():
					remotes++
					w := toWireDelta(&event.Event{ID: rec.Remote.ID, VC: rec.Remote.VC}, denc)
					w.MsgID = rec.Remote.MsgID
					msg.Shard = w
				case rec.ref.isEvent():
					msg.Raw = &rec.Event
				default:
					msg.Trace = &wireTrace{Name: rec.Trace}
				}
				if err := enc.Encode(&msg); err != nil {
					t.Fatal(err)
				}
			}
			if sharded && remotes == 0 {
				t.Fatal("sharded workload produced no remote-send records")
			}

			srv := NewServer(c, t.Logf)
			// No heartbeat may interleave, and the silent test peer must
			// not be timed out while it reads.
			srv.SetWireTiming(0, time.Hour, time.Hour)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := dialRaw(addr, hello{Magic: wireMagic, Role: roleReplica, DeltaVC: true})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			got := make([]byte, want.Len())
			if _, err := io.ReadFull(conn, got); err != nil {
				t.Fatalf("reading %d stream bytes: %v", want.Len(), err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				i := 0
				for i < len(got) && got[i] == want.Bytes()[i] {
					i++
				}
				t.Fatalf("replica stream differs from the ingested sequence at byte %d of %d", i, want.Len())
			}
		})
	}
}

// TestDumpBytesEqualDeliveredRawEvents: Dump's output is byte-identical
// to encoding the delivered raw events, in delivery order, followed by
// the held ones — the format the retained copy used to be written from.
func TestDumpBytesEqualDeliveredRawEvents(t *testing.T) {
	c := NewCollector()
	c.RetainLog()
	var order []event.ID
	c.Subscribe(func(e *event.Event) { order = append(order, e.ID) })
	ingested, _ := refWorkload(t, c, 300, false)
	held := RawEvent{Trace: "p2", Seq: 1 << 20, Kind: event.KindInternal, Type: "held", Text: "pending"}
	if err := c.Report(held); err != nil {
		t.Fatal(err)
	}
	byPos := map[string]RawEvent{}
	for _, raw := range ingested {
		byPos[fmt.Sprintf("%s/%d", raw.Trace, raw.Seq)] = raw
	}

	var want bytes.Buffer
	enc := gob.NewEncoder(&want)
	hdr := dumpHeader{Magic: dumpMagic, Version: dumpVersion, Events: len(order), Pending: 1}
	for i := 0; i < c.Store().NumTraces(); i++ {
		hdr.Traces = append(hdr.Traces, c.Store().TraceName(event.TraceID(i)))
	}
	if err := enc.Encode(hdr); err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		raw, ok := byPos[fmt.Sprintf("%s/%d", c.Store().TraceName(id.Trace), id.Index)]
		if !ok {
			t.Fatalf("delivered %s was never reported", id)
		}
		if err := enc.Encode(&raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(&held); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	if err := c.Dump(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("dump (%d bytes) differs from the encoded delivered raw events (%d bytes)", got.Len(), want.Len())
	}
}

// TestDumpRefusesEvictedLinearization: RetainLog does not stop a
// retention bound set before it from evicting; the dump is then
// refused rather than written without the evicted prefix.
func TestDumpRefusesEvictedLinearization(t *testing.T) {
	c := NewCollector()
	if err := c.SetRetention(10); err != nil {
		t.Fatal(err)
	}
	c.RetainLog()
	for i := 1; i <= 40; i++ {
		if err := c.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if c.RetentionStats().Evicted == 0 {
		t.Fatal("retention evicted nothing; the test proves nothing")
	}
	if err := c.Dump(io.Discard); err == nil {
		t.Fatal("Dump wrote a linearization missing its evicted prefix")
	}
}

// TestOneCopyLayout guards the sizes the single-copy design relies on:
// a stored event stays in its 96-byte size class with MsgID on board,
// and a replication-log record is a 16-byte value the GC never scans.
func TestOneCopyLayout(t *testing.T) {
	if got := unsafe.Sizeof(event.Event{}); got > 96 {
		t.Errorf("event.Event is %d bytes, want <= 96", got)
	}
	if got := unsafe.Sizeof(repRef{}); got != 16 {
		t.Errorf("repRef is %d bytes, want 16", got)
	}
	if hasPointers(reflect.TypeOf(repRef{})) {
		t.Error("repRef holds pointers; the replication log would be scanned by the GC")
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}
