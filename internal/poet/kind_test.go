package poet

import (
	"errors"
	"strings"
	"testing"

	"ocep/internal/event"
	"ocep/internal/telemetry"
	"ocep/internal/wal"
)

// TestInvalidKindRejectedAtIngest: an event whose kind is not a defined
// kind — the unset zero value included — is refused wherever it enters
// the collector (Report, a reporter's wire session, WAL replay) with
// ErrInvalidKind, counted as a rejected report and never ingested.
func TestInvalidKindRejectedAtIngest(t *testing.T) {
	bad := []RawEvent{
		{Trace: "p0", Seq: 1, Type: "unset"},
		{Trace: "p0", Seq: 1, Kind: event.KindSyncRelease + 1, Type: "past the last kind"},
		{Trace: "p0", Seq: 1, Kind: -1, Type: "negative"},
	}

	t.Run("Report", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		c := NewCollector()
		if err := c.EnableReplicationLog(); err != nil {
			t.Fatal(err)
		}
		c.InstrumentMetrics(reg)
		for _, raw := range bad {
			if err := c.Report(raw); !errors.Is(err, ErrInvalidKind) {
				t.Errorf("Report(%+v) = %v, want ErrInvalidKind", raw, err)
			}
		}
		if got := reg.FindCounter("poet_rejected_reports_total").Value(); got != int64(len(bad)) {
			t.Errorf("poet_rejected_reports_total = %d, want %d", got, len(bad))
		}
		if c.IngestCount() != 0 || c.Pending() != 0 || c.Store().NumTraces() != 0 || c.ReplicationStats().Records != 0 {
			t.Errorf("a rejected event left state behind: ingested %d, pending %d, traces %d, records %d",
				c.IngestCount(), c.Pending(), c.Store().NumTraces(), c.ReplicationStats().Records)
		}
		// The trace itself is fine: a well-formed event at the same
		// position is ingested.
		if err := c.Report(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("wire", func(t *testing.T) {
		c, _, addr := startServer(t)
		rep, err := DialReporter(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		_ = rep.Report(bad[0])
		waitFor(t, func() bool { return rep.Err() != nil })
		if err := rep.Err(); !strings.Contains(err.Error(), ErrInvalidKind.Error()) {
			t.Fatalf("reporter error = %v, want the server's ErrInvalidKind rejection", err)
		}
		if n := c.IngestCount(); n != 0 {
			t.Fatalf("collector ingested %d events from a rejected session", n)
		}
	})

	t.Run("WAL replay", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := wal.Open(dir, wal.Options{}, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range []RawEvent{
			{Trace: "p0", Seq: 1, Kind: event.KindInternal, Type: "x"},
			{Trace: "p0", Seq: 2, Type: "unset"},
			{Trace: "p0", Seq: 2, Kind: event.KindInternal, Type: "x"},
		} {
			if _, err := l.Append(encodeEventRecord(raw)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		c, d := openDurable(t, dir, DurableOptions{})
		defer d.Close()
		rec := d.Recovery()
		if rec.WALRecords != 3 || rec.RejectedRecords != 1 || rec.StaleRecords != 0 {
			t.Fatalf("recovery = %+v, want 3 records with 1 rejected", rec)
		}
		if c.Delivered() != 2 {
			t.Fatalf("recovered %d delivered events, want 2", c.Delivered())
		}
	})
}
