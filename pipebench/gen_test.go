package main

import (
	"math/rand"
	"testing"

	"ocep"
	"ocep/internal/event"
)

func generate(w workloadSpec, seed int64) []ocep.RawEvent {
	return w.gen(rand.New(rand.NewSource(seed)), 20000)
}

func TestSameSeedSameDigest(t *testing.T) {
	for _, w := range workloads {
		a, b := digest(generate(w, 7)), digest(generate(w, 7))
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a, b)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	for _, w := range workloads {
		if a, b := digest(generate(w, 1)), digest(generate(w, 2)); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", w.name, a)
		}
	}
}

// TestStreamsAreCausallyOrdered checks the property the open loop
// relies on: every receive follows its send, and sequence numbers count
// up from 1 per trace, so a collector can deliver each event on arrival.
func TestStreamsAreCausallyOrdered(t *testing.T) {
	for _, w := range workloads {
		seq := make(map[string]int)
		sent := make(map[uint64]bool)
		for i, e := range generate(w, 3) {
			seq[e.Trace]++
			if e.Seq != seq[e.Trace] {
				t.Fatalf("%s: event %d: %s seq %d, want %d", w.name, i, e.Trace, e.Seq, seq[e.Trace])
			}
			switch e.Kind {
			case event.KindSend, event.KindSyncRelease:
				if sent[e.MsgID] {
					t.Fatalf("%s: event %d: message %d sent twice", w.name, i, e.MsgID)
				}
				sent[e.MsgID] = true
			case event.KindReceive, event.KindSyncAcquire:
				if !sent[e.MsgID] {
					t.Fatalf("%s: event %d: %s receives message %d before its send", w.name, i, e.Trace, e.MsgID)
				}
				delete(sent, e.MsgID)
			}
		}
		if len(sent) != 0 {
			t.Errorf("%s: %d sends never received", w.name, len(sent))
		}
	}
}

// TestPlantedViolationsDetected runs the oracle over each workload's
// stream: at the sizes the benchmark uses, every run must yield at
// least 1000 detections so the detection-latency p99 has ten samples
// beyond it.
func TestPlantedViolationsDetected(t *testing.T) {
	for _, w := range workloads {
		events := w.gen(rand.New(rand.NewSource(1)), nominalRate)
		got, _, err := runOracle(w.pattern, events, newTraceTable(events))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		// One second of the nominal phase; a run has at least ten.
		if got.Matches.N < 100 {
			t.Errorf("%s: %d matches in one second of input, want at least 100", w.name, got.Matches.N)
		}
	}
}
