package main

import (
	"testing"
	"time"

	"ocep"
	"ocep/internal/event"
	"ocep/internal/poet"
)

// TestReporterWindow pins reporterWindow to the reporter's default
// unacked buffer, which reporter.blocked_frac relies on: with the
// server's acks held back, a default reporter accepts reporterWindow
// events and blocks on the next.
func TestReporterWindow(t *testing.T) {
	srv := poet.NewServer(poet.NewCollector(), nil)
	srv.SetWireTiming(time.Hour, 0, time.Hour)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rep, err := ocep.DialReporter(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	report := func(from, to int) <-chan error {
		done := make(chan error, 1)
		go func() {
			for i := from; i <= to; i++ {
				if err := rep.Report(ocep.RawEvent{Trace: "t", Seq: i, Kind: event.KindInternal, Type: "step"}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		return done
	}
	select {
	case err := <-report(1, reporterWindow):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Report blocked before %d unacked events: the default window is smaller than reporterWindow", reporterWindow)
	}
	select {
	case <-report(reporterWindow+1, reporterWindow+1):
		t.Fatalf("Report accepted event %d with no ack: the default window is larger than reporterWindow", reporterWindow+1)
	case <-time.After(500 * time.Millisecond):
	}
}
