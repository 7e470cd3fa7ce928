package poet

// Tests for coalesced wire frames and ack-driven reporter pruning: the
// framed writer must put exactly the bytes of a bare gob.Encoder on the
// wire, a cut landing inside a multi-frame write must still give
// exactly-once ingestion and a gap-free resumed monitor stream, and the
// reporter's incremental prune must stay exact.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/faultnet"
	"ocep/internal/vclock"
)

// bufConn is a net.Conn whose writes land in a buffer; only Write and
// SetWriteDeadline are used by the frame writer.
type bufConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *bufConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *bufConn) SetWriteDeadline(time.Time) error { return nil }

// TestCoalescedFramesByteIdentical encodes one mixed frame sequence —
// handshake, trace announcements, dense and delta events, heartbeat,
// End — through the framed writer (single sends and multi-frame
// batches) and through a bare gob.Encoder, and requires identical bytes:
// coalescing changes how the stream is split into writes, never what it
// says.
func TestCoalescedFramesByteIdentical(t *testing.T) {
	denc := &deltaEncoder{}
	ev := func(tr, idx int, vc vclock.VC) *event.Event {
		return &event.Event{ID: event.ID{Trace: event.TraceID(tr), Index: idx}, Kind: event.KindSend, Type: "send", Text: "m", VC: vc}
	}
	batches := [][]any{
		{&helloAck{OK: true, DeltaVC: true}},
		{
			&wireMsg{Trace: &wireTrace{ID: 0, Name: "p0"}},
			&wireMsg{Trace: &wireTrace{ID: 1, Name: "p1"}},
			&wireMsg{Event: toWire(ev(0, 1, vclock.VC{1}))},
			&wireMsg{Event: toWireDelta(ev(1, 1, vclock.VC{1, 1}), denc)},
			&wireMsg{Event: toWireDelta(ev(0, 2, vclock.VC{2, 1}), denc)},
		},
		{&wireMsg{Heartbeat: true}},
		{&serverAck{Acks: []traceAck{{Trace: "p0", Seq: 2}}}},
		{&targetMsg{Event: &RawEvent{Trace: "p1", Seq: 2, Kind: event.KindReceive, Type: "recv", MsgID: 7}}, &targetMsg{Heartbeat: true}},
		{&wireMsg{End: true}},
	}

	var bare bytes.Buffer
	enc := gob.NewEncoder(&bare)
	for _, b := range batches {
		for _, v := range b {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}

	conn := &bufConn{}
	var stats frameStats
	fw := newFrameWriter(conn, nil, time.Second, &stats)
	frames := 0
	for _, b := range batches {
		if len(b) == 1 {
			if err := fw.Send(b[0]); err != nil {
				t.Fatal(err)
			}
		} else if err := fw.Batch(func(queue func(any) error) error {
			for _, v := range b {
				if err := queue(v); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		frames += len(b)
	}
	if !bytes.Equal(conn.buf.Bytes(), bare.Bytes()) {
		t.Fatalf("framed writer emitted %d bytes, bare encoder %d: the byte streams differ", conn.buf.Len(), bare.Len())
	}
	if got := stats.frames.Load(); got != int64(frames) {
		t.Errorf("frames = %d, want %d", got, frames)
	}
	if got := stats.flushes.Load(); got != int64(len(batches)) {
		t.Errorf("flushes = %d, want one per batch (%d)", got, len(batches))
	}
}

// TestReporterStaleReportFlushes reports events at and below their
// trace's ack. The prune that runs between acks checks only newly
// appended events, and must still drop them: Flush returns instead of
// waiting forever for an ack that will never cover them again, and
// every reported event counts as acked.
func TestReporterStaleReportFlushes(t *testing.T) {
	c, _, p := startFaultServer(t)
	rep := fastReporter(t, p)
	for i := 1; i <= 10; i++ {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int{5, 10} {
		if err := rep.Report(RawEvent{Trace: "p0", Seq: seq, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	flushed := make(chan error, 1)
	go func() { flushed <- rep.Flush() }()
	select {
	case err := <-flushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Flush hung on events reported at or below their ack")
	}
	if st := rep.Stats(); st.Acked != st.Reported || st.Reported != 12 {
		t.Fatalf("stats = %+v: want Acked == Reported == 12", st)
	}
	if got := c.Delivered(); got != 10 {
		t.Fatalf("delivered %d events, want 10", got)
	}
}

// TestReporterReconnectRetransmitsUnackedSuffix acks a prefix, loses
// the next events on the way to the server, then cuts the connection:
// the reconnect must retransmit exactly the unacked suffix — no acked
// event again, no lost one skipped.
func TestReporterReconnectRetransmitsUnackedSuffix(t *testing.T) {
	c, srv, p := startFaultServer(t)
	rep := fastReporter(t, p)
	report := func(from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if err := rep.Report(RawEvent{Trace: "p0", Seq: i, Kind: event.KindInternal, Type: "x"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	report(1, 100)
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	// The next 50 events vanish on the way up; acks keep flowing down.
	p.SetDropDir(faultnet.ClientToServer, true)
	report(101, 150)
	waitFor(t, func() bool {
		rep.mu.Lock()
		defer rep.mu.Unlock()
		return rep.sent == len(rep.unacked)
	})
	// Cut before lifting the drop, so no byte of the lost events can
	// still reach the server through the old link.
	p.CutAll()
	p.SetDropDir(faultnet.ClientToServer, false)
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rep.Stats()
	if st.Reconnects != 1 || st.Retransmits != 50 {
		t.Fatalf("stats = %+v: want 1 reconnect retransmitting exactly the 50 unacked events", st)
	}
	if st.Acked != 150 || c.Delivered() != 150 {
		t.Fatalf("acked %d, delivered %d: want 150 each", st.Acked, c.Delivered())
	}
	if stale := srv.WireStats().StaleEvents; stale != 0 {
		t.Fatalf("server absorbed %d stale retransmits; an acked event was resent", stale)
	}
}

// pairStream is a two-trace message workload: p0 sends message i, p1
// receives it, in report order.
func pairStream(n int) []RawEvent {
	evs := make([]RawEvent, 0, 2*n)
	for i := 1; i <= n; i++ {
		evs = append(evs,
			RawEvent{Trace: "p0", Seq: i, Kind: event.KindSend, Type: "send", Text: "payload", MsgID: uint64(i)},
			RawEvent{Trace: "p1", Seq: i, Kind: event.KindReceive, Type: "recv", MsgID: uint64(i)})
	}
	return evs
}

// eventLine renders one delivered event with its timestamp's nonzero
// entries: a resumed delta session restarts from an empty baseline, so
// the same timestamp may decode with fewer trailing zeros.
func eventLine(trace string, e *event.Event) string {
	line := fmt.Sprintf("%s/%d", trace, e.ID.Index)
	e.VC.Range(func(t int, n int32) bool {
		if n != 0 {
			line += fmt.Sprintf(" %d:%d", t, n)
		}
		return true
	})
	return line
}

// linearization renders a collector's delivered stream for comparison.
func linearization(c *Collector) []string {
	out := make([]string, 0, c.Delivered())
	for _, e := range c.Ordered() {
		out = append(out, eventLine(c.Store().TraceName(e.ID.Trace), e))
	}
	return out
}

// TestReporterSurvivesCutMidFlush arms every reporter connection with a
// byte budget that expires inside a coalesced multi-frame write, many
// times over. The collector must end with the fault-free run's exact
// linearization: every event ingested once, none lost.
func TestReporterSurvivesCutMidFlush(t *testing.T) {
	evs := pairStream(2000)
	clean := NewCollector()
	for _, e := range evs {
		if err := clean.Report(e); err != nil {
			t.Fatal(err)
		}
	}

	c, srv, p := startFaultServer(t)
	p.SetKillAfter(6*1024 + 37)
	rep := fastReporter(t, p)
	for _, e := range evs {
		if err := rep.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.Flush(); err != nil {
		t.Fatal(err)
	}
	st := rep.Stats()
	if st.Reconnects < 2 || p.Stats().Resets < 2 {
		t.Fatalf("reporter %+v, proxy %+v: the byte budget never cut the stream (test proved nothing)", st, p.Stats())
	}
	if st.Flushes >= len(evs) {
		t.Fatalf("%d flushes for %d events: frames were never coalesced", st.Flushes, len(evs))
	}
	if st.Acked != len(evs) {
		t.Fatalf("acked %d of %d events", st.Acked, len(evs))
	}
	want, got := linearization(clean), linearization(c)
	if !slices.Equal(got, want) {
		t.Fatalf("linearization after mid-flush cuts differs from the fault-free run (%d vs %d events)", len(got), len(want))
	}
	t.Logf("reporter: %+v, server: %+v", st, srv.WireStats())
}

// TestMonitorResumesAfterCutMidFlush replays a long stream to a monitor
// through a proxy whose byte budget cuts every connection inside a
// coalesced multi-frame write. Each resume must continue at the exact
// offset: the stream equals a fault-free monitor's, event for event and
// timestamp for timestamp.
func TestMonitorResumesAfterCutMidFlush(t *testing.T) {
	c, srv, p := startFaultServer(t)
	evs := pairStream(1500)
	for _, e := range evs {
		if err := c.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	read := func(addr string) ([]string, MonitorClientStats) {
		t.Helper()
		mon, err := DialMonitor(addr,
			WithMonitorReconnect(10*time.Second),
			WithMonitorBackoff(2*time.Millisecond, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer mon.Close()
		out := make([]string, 0, len(evs))
		for range evs {
			e, err := mon.Next()
			if err != nil {
				t.Fatalf("next after %d events: %v", len(out), err)
			}
			name, _ := mon.TraceName(e.ID.Trace)
			out = append(out, eventLine(name, e))
		}
		return out, mon.Stats()
	}
	want, _ := read(srv.listener.Addr().String())

	p.SetKillAfter(8*1024 + 101)
	got, st := read(p.Addr())
	if st.Reconnects < 2 {
		t.Fatalf("stats = %+v: the byte budget never cut the stream (test proved nothing)", st)
	}
	if !slices.Equal(got, want) {
		t.Fatal("resumed stream differs from the fault-free stream: a gap or duplicate across a mid-flush cut")
	}
	if ws := srv.WireStats(); ws.Flushes >= ws.Frames {
		t.Fatalf("server wrote %d frames in %d flushes: frames were never coalesced", ws.Frames, ws.Flushes)
	}
}

// BenchmarkReporterReport times the reporter's real send path — Report,
// the sender's prune, encode and coalesced flush to a loopback Server —
// with the unacked buffer held at a fixed depth: depth events of a trace
// whose first event is never reported, so no ack ever covers them. The
// server's periodic acks are parked (hour-long interval). Every segment
// of live events is timed until the sender has flushed it; then, with
// the timer stopped, the live trace's ack is applied through the path
// the ack reader uses and the buffer drains back to the held depth.
// ns/op must stay flat as depth grows; writes/event is the reporter's
// socket writes per event.
func BenchmarkReporterReport(b *testing.B) {
	for _, depth := range []int{16, 1024, 8000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchmarkReporterReport(b, depth)
		})
	}
}

func benchmarkReporterReport(b *testing.B, depth int) {
	const segment = 256
	c := NewCollector()
	if err := c.SetRetention(1 << 14); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(c, nil)
	srv.SetWireTiming(time.Hour, 0, time.Hour)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rep, err := DialReporter(addr, WithReporterBuffer(depth+segment))
	if err != nil {
		b.Fatal(err)
	}
	defer rep.Close()
	report := func(trace string, seq int) {
		if err := rep.Report(RawEvent{Trace: trace, Seq: seq, Kind: event.KindInternal, Type: "x"}); err != nil {
			b.Fatal(err)
		}
	}
	waitUntil := func(cond func() bool) {
		for {
			rep.mu.Lock()
			ok := cond()
			rep.mu.Unlock()
			if ok {
				return
			}
			runtime.Gosched()
		}
	}
	sentAll := func() bool { return rep.sent == len(rep.unacked) }
	for i := 0; i < depth; i++ {
		report("held", i+2)
	}
	waitUntil(sentAll)
	flushes := rep.Stats().Flushes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		report("live", i)
		if i%segment == 0 || i == b.N {
			waitUntil(sentAll)
			b.StopTimer()
			rep.mu.Lock()
			rep.raiseAcksLocked([]traceAck{{Trace: "live", Seq: i}})
			rep.mu.Unlock()
			rep.signal()
			waitUntil(func() bool { return len(rep.unacked) == depth })
			b.StartTimer()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Stats().Flushes-flushes)/float64(b.N), "writes/event")
}
