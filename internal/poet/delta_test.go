package poet

import (
	"encoding/gob"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"ocep/internal/event"
	"ocep/internal/vclock"
)

// sameEvent compares two delivered events field by field, with the
// timestamps compared by value (Clock.Equal) rather than by
// representation, so dense, sparse, and delta-decoded streams can be
// checked against each other. Send-side partners are excluded: the
// collector backfills a send's Partner when its receive is delivered,
// which races with wire encoding, so a live stream may legitimately
// carry a send before the backfill while the in-process oracle (read
// after the fact) has it.
func sameEvent(a, b *event.Event) bool {
	if a.ID != b.ID || a.Kind != b.Kind || a.Type != b.Type ||
		a.Text != b.Text || !a.VC.Equal(b.VC) {
		return false
	}
	if isSendLike(a.Kind) {
		return true
	}
	return a.Partner == b.Partner
}

// drainMonitor reads exactly n events from mon.
func drainMonitor(t *testing.T, mon *MonitorClient, n int) []*event.Event {
	t.Helper()
	out := make([]*event.Event, 0, n)
	for len(out) < n {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("monitor next %d: %v", len(out), err)
		}
		out = append(out, e)
	}
	return out
}

// TestDeltaRefusesDenseOnlyMonitorShardReplicaQuery sends hellos
// without DeltaVC — a peer that would expect full vectors — on every
// role that receives timestamps. Monitor, shard and replica hellos must
// get a terminal refusal (ErrSessionRejected on the client side), the
// query role a closed connection, and none of them a single frame after
// the refusal, although the collector has events, exports and replication
// records to send.
func TestDeltaRefusesDenseOnlyMonitorShardReplicaQuery(t *testing.T) {
	c := NewCollector()
	if err := c.EnableReplicationLog(); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableSharding(0, 1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c, t.Logf)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	reportAll(t, c, durWorkload(10))

	// silent requires the server to close conn without sending anything.
	silent := func(role string, conn net.Conn, dec *gob.Decoder) {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var msg wireMsg
		if err := dec.Decode(&msg); err == nil {
			t.Fatalf("%s: refused session received a frame: %+v", role, msg)
		} else if isTimeout(err) {
			t.Fatalf("%s: refused session was left open", role)
		}
	}
	for _, role := range []string{roleMonitor, roleShard, roleReplica, roleQuery} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := gob.NewEncoder(conn).Encode(hello{Magic: wireMagic, Role: role}); err != nil {
			t.Fatal(err)
		}
		dec := gob.NewDecoder(conn)
		if role == roleQuery {
			// No ack on this role: the refusal is the closed connection,
			// and a request gets no response.
			_ = gob.NewEncoder(conn).Encode(&queryReq{Op: opGet, Trace: 0, Index: 1})
			silent(role, conn, dec)
			continue
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var ack helloAck
		if err := dec.Decode(&ack); err != nil {
			t.Fatalf("%s: reading the refusal: %v", role, err)
		}
		err = ackErr(ack, role)
		if !errors.Is(err, ErrSessionRejected) || !strings.Contains(err.Error(), "delta") {
			t.Fatalf("%s: dense-only hello answered %+v (%v), want a terminal refusal naming delta timestamps", role, ack, err)
		}
		silent(role, conn, dec)
	}
}

// TestDeltaDenseSparseStreamEquivalence runs the same causally rich
// stream through two concurrent monitor sessions — dense and sparse
// stamps, both decoded from delta-encoded frames — and requires both to
// reconstruct exactly the events the in-process collector delivered.
func TestDeltaDenseSparseStreamEquivalence(t *testing.T) {
	c, _, addr := startServer(t)

	delta, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer delta.Close()
	sparse, err := DialMonitor(addr, WithMonitorSparseClocks())
	if err != nil {
		t.Fatal(err)
	}
	defer sparse.Close()

	evs := durWorkload(60)
	reportAll(t, c, evs)
	waitFor(t, func() bool { return c.Delivered() == len(evs) })
	oracle := c.Ordered()

	for name, mon := range map[string]*MonitorClient{"delta": delta, "sparse": sparse} {
		got := drainMonitor(t, mon, len(oracle))
		for i, e := range got {
			if !sameEvent(e, oracle[i]) {
				t.Fatalf("%s stream event %d = %v vc=%v, oracle %v vc=%v",
					name, i, e.ID, e.VC, oracle[i].ID, oracle[i].VC)
			}
		}
	}
}

// TestMonitorSparseClockRepresentation checks the sparse option's stamp
// type and that sparse stamps order events identically to dense ones.
func TestMonitorSparseClockRepresentation(t *testing.T) {
	c, _, addr := startServer(t)
	mon, err := DialMonitor(addr, WithMonitorSparseClocks())
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	evs := durWorkload(10)
	reportAll(t, c, evs)
	waitFor(t, func() bool { return c.Delivered() == len(evs) })

	got := drainMonitor(t, mon, len(evs))
	var lastSend, lastRecv *event.Event
	for _, e := range got {
		if _, ok := e.VC.(*vclock.Sparse); !ok {
			t.Fatalf("sparse session delivered a %T stamp", e.VC)
		}
		if e.Kind == event.KindSend {
			lastSend = e
		}
		if e.Kind == event.KindReceive {
			lastRecv = e
		}
	}
	if lastSend == nil || lastRecv == nil {
		t.Fatal("workload produced no send/receive pair")
	}
	if !got[0].Before(got[len(got)-1]) {
		t.Fatal("sparse stamps lost the stream-order happens-before edge")
	}
}

// TestDeltaResumeBaselineReset cuts a delta-encoded monitor session
// mid-replay several times and requires the resumed stream to carry
// exactly the oracle's timestamps: the handshake must reset both the
// encoder's and the decoder's baselines, or the first post-resume delta
// would be applied to a stale vector and every subsequent stamp would
// be wrong.
func TestDeltaResumeBaselineReset(t *testing.T) {
	c, _, p := startFaultServer(t)

	const rounds = 1200
	evs := durWorkload(rounds)
	reportAll(t, c, evs)
	waitFor(t, func() bool { return c.Delivered() == len(evs) })
	oracle := c.Ordered()

	// Throttle so the replay is still in flight when the cuts land.
	p.SetChunk(256, 200*time.Microsecond)
	mon, err := DialMonitor(p.Addr(),
		WithMonitorReconnect(10*time.Second),
		WithMonitorBackoff(2*time.Millisecond, 50*time.Millisecond),
		WithMonitorLog(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	for i := 0; i < len(oracle); i++ {
		e, err := mon.Next()
		if err != nil {
			t.Fatalf("next %d: %v", i, err)
		}
		if !sameEvent(e, oracle[i]) {
			t.Fatalf("post-resume stream diverged at %d: got %v vc=%v, want %v vc=%v",
				i, e.ID, e.VC, oracle[i].ID, oracle[i].VC)
		}
		if i == 700 || i == 1800 || i == 2900 {
			p.CutAll()
		}
	}
	if st := mon.Stats(); st.Reconnects == 0 {
		t.Fatalf("stats = %+v: the cuts never forced a resume (test proved nothing)", st)
	}
}

// TestDeltaDecoderRejectsMissingBaseline: a decoder that never saw a
// VCFull frame must fail loudly instead of stamping events against a
// garbage baseline.
func TestDeltaDecoderRejectsMissingBaseline(t *testing.T) {
	d := &deltaDecoder{}
	_, err := d.decode(&wireEvent{Trace: 0, Index: 1, VCTr: []int32{0}, VCN: []int32{1}})
	if err == nil || !strings.Contains(err.Error(), "out of sync") {
		t.Fatalf("decode without baseline = %v, want out-of-sync error", err)
	}
	// A VCFull frame recovers it.
	vc, err := d.decode(&wireEvent{Trace: 0, Index: 1, VCFull: true, VCTr: []int32{0}, VCN: []int32{1}})
	if err != nil || vc.Get(0) != 1 {
		t.Fatalf("decode of baseline frame = %v, %v", vc, err)
	}
}

// TestDeltaDecoderRejectsMalformedFrames: frames no encoder produces —
// more trace indices than values or the reverse, a negative trace
// index, an index above the ceiling — fail with the named error instead
// of panicking or allocating for an absurd index, and leave the
// baseline untouched.
func TestDeltaDecoderRejectsMalformedFrames(t *testing.T) {
	for name, w := range map[string]*wireEvent{
		"more indices than values": {VCTr: []int32{0, 1}, VCN: []int32{1}},
		"more values than indices": {VCTr: []int32{0}, VCN: []int32{1, 2}},
		"negative index":           {VCTr: []int32{-1}, VCN: []int32{1}},
		"index above the ceiling":  {VCTr: []int32{maxWireTrace + 1}, VCN: []int32{1}},
		"largest int32 index":      {VCTr: []int32{1<<31 - 1}, VCN: []int32{1}},
	} {
		d := &deltaDecoder{}
		if _, err := d.decode(&wireEvent{VCFull: true, VCTr: []int32{2}, VCN: []int32{7}}); err != nil {
			t.Fatal(err)
		}
		w.VCFull = true
		if _, err := d.decode(w); !errors.Is(err, errMalformedDelta) {
			t.Fatalf("%s: decode = %v, want errMalformedDelta", name, err)
		}
		vc, err := d.decode(&wireEvent{})
		if err != nil || !vc.Equal(vclock.VC{0, 0, 7}) {
			t.Fatalf("%s: baseline after the refused frame = %v, %v; want [0 0 7]", name, vc, err)
		}
	}
	// The ceiling itself is a valid index.
	vc, err := (&deltaDecoder{sparse: true}).decode(&wireEvent{VCFull: true, VCTr: []int32{maxWireTrace}, VCN: []int32{3}})
	if err != nil || vc.Get(maxWireTrace) != 3 {
		t.Fatalf("decode at the ceiling = %v, %v", vc, err)
	}
}

// TestDeltaCodecVanishedEntries round-trips a sequence whose timestamps
// are not per-component monotone (entries drop back to zero between
// consecutive frames), which the encoder must spell as explicit (t, 0)
// entries.
func TestDeltaCodecVanishedEntries(t *testing.T) {
	stamps := []vclock.VC{
		{1, 0, 3},
		{0, 2, 3}, // entry 0 vanished
		{4},       // entries 1 and 2 vanished
		{},        // everything vanished
		{0, 0, 0, 9},
	}
	enc := &deltaEncoder{}
	dec := &deltaDecoder{}
	for i, vc := range stamps {
		w := &wireEvent{}
		enc.encode(vc, w)
		got, err := dec.decode(w)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !got.Equal(vc) {
			t.Fatalf("frame %d decoded to %v, want %v", i, got, vc)
		}
	}
}

// TestCollectorSparseClocks runs the same workload through a dense and
// a sparse collector and requires identical delivery state.
func TestCollectorSparseClocks(t *testing.T) {
	dense := NewCollector()
	sparse := NewCollector()
	if err := sparse.SetSparseClocks(true); err != nil {
		t.Fatal(err)
	}
	if !sparse.SparseClocks() {
		t.Fatal("SparseClocks() = false after SetSparseClocks(true)")
	}
	evs := durWorkload(50)
	reportAll(t, dense, evs)
	reportAll(t, sparse, evs)
	if dense.Delivered() != sparse.Delivered() {
		t.Fatalf("delivered %d dense vs %d sparse", dense.Delivered(), sparse.Delivered())
	}
	do, so := dense.Ordered(), sparse.Ordered()
	for i := range do {
		if !sameEvent(do[i], so[i]) {
			t.Fatalf("event %d: dense %v vc=%v, sparse %v vc=%v", i, do[i].ID, do[i].VC, so[i].ID, so[i].VC)
		}
		if _, ok := so[i].VC.(*vclock.Sparse); !ok {
			t.Fatalf("sparse collector stamped event %d with %T", i, so[i].VC)
		}
	}

	// Flipping the representation after delivery is refused...
	if err := sparse.SetSparseClocks(false); err == nil {
		t.Fatal("SetSparseClocks(false) after delivery succeeded")
	}
	// ...but restating the current representation stays a no-op.
	if err := sparse.SetSparseClocks(true); err != nil {
		t.Fatalf("no-op SetSparseClocks(true) = %v", err)
	}
}

// TestDurableSparseCrashRecovery: the WAL stores raw events, so a
// collector configured for sparse stamps before recovery restamps the
// replayed stream in the sparse representation — and the recovered
// state matches a dense recovery of the same directory.
func TestDurableSparseCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	evs := durWorkload(40)

	c1 := NewCollector()
	if err := c1.SetSparseClocks(true); err != nil {
		t.Fatal(err)
	}
	d1, err := OpenDurable(c1, DurableOptions{Dir: dir, Fsync: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, c1, evs)
	wantDelivered := c1.Delivered()
	oracle := c1.Ordered()
	// Crash: close the log only, no snapshot, no clean shutdown.
	if err := d1.log.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover sparse.
	c2 := NewCollector()
	if err := c2.SetSparseClocks(true); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(c2, DurableOptions{Dir: dir, Fsync: SyncAlways, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if c2.Delivered() != wantDelivered {
		t.Fatalf("sparse recovery delivered %d, want %d", c2.Delivered(), wantDelivered)
	}
	for i, e := range c2.Ordered() {
		if !sameEvent(e, oracle[i]) {
			t.Fatalf("sparse recovery event %d = %v vc=%v, want %v vc=%v", i, e.ID, e.VC, oracle[i].ID, oracle[i].VC)
		}
		if _, ok := e.VC.(*vclock.Sparse); !ok {
			t.Fatalf("recovered event %d stamped with %T, want sparse", i, e.VC)
		}
	}

	// A dense recovery of the same directory agrees on everything but the
	// representation.
	c3 := NewCollector()
	if _, err := ReloadDir(c3, dir); err != nil {
		t.Fatal(err)
	}
	for i, e := range c3.Ordered() {
		if !sameEvent(e, oracle[i]) {
			t.Fatalf("dense recovery event %d diverges from sparse oracle: %v vs %v", i, e.VC, oracle[i].VC)
		}
	}
}

// TestWireStatsDeltaCounters sanity-checks the new wire accounting.
func TestWireStatsDeltaCounters(t *testing.T) {
	c, srv, addr := startServer(t)
	mon, err := DialMonitor(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	evs := durWorkload(20)
	reportAll(t, c, evs)
	got := drainMonitor(t, mon, len(evs))
	if len(got) != len(evs) {
		t.Fatalf("drained %d events, want %d", len(got), len(evs))
	}
	waitFor(t, func() bool {
		st := srv.WireStats()
		return st.MonitorBytes > 0 && st.VCEntriesSent > 0
	})
	st := srv.WireStats()
	// Dense would ship >= one entry per event per trace; the delta stream
	// must ship strictly fewer entries than the dense worst case.
	denseEntries := len(evs) * 2
	if st.VCEntriesSent >= denseEntries {
		t.Fatalf("delta stream sent %d VC entries, dense equivalent is %d — no compression",
			st.VCEntriesSent, denseEntries)
	}
}
