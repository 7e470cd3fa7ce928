package bench

import (
	"encoding/gob"

	"ocep/internal/event"
	"ocep/internal/poet"
	"ocep/internal/vclock"
)

// The trace-scale experiment's dense reference column. The wire
// delta-encodes every timestamp; this encoder reproduces what a monitor
// session cost when each event carried its full vector, so the
// experiment can keep reporting the ratio. The frame types mirror the
// wire's monitor frame field for field — name, order, and the dense VC
// field included — so the gob byte count equals what that session put
// on the wire. Nothing decodes these frames.

type wireMsg struct {
	Trace     *wireTrace
	Event     *wireEvent
	Heartbeat bool
	End       bool
	Raw       *poet.RawEvent
	Drain     bool
	Head      int
	Shard     *wireEvent
}

type wireTrace struct {
	ID   int
	Name string
}

type wireEvent struct {
	Trace, Index               int
	Kind                       event.Kind
	Type, Text                 string
	VC                         vclock.VC
	PartnerTrace, PartnerIndex int
	VCTr, VCN                  []int32
	VCFull                     bool
	MsgID                      uint64
}

// byteCounter is an io.Writer that only counts: a dense stream at tens
// of thousands of traces is too large to hold.
type byteCounter struct{ n int64 }

func (b *byteCounter) Write(p []byte) (int, error) {
	b.n += int64(len(p))
	return len(p), nil
}

// denseWireBytes gob-encodes evs as one monitor session with full dense
// timestamps and returns the encoded size.
func denseWireBytes(evs []*event.Event) (int64, error) {
	var bc byteCounter
	enc := gob.NewEncoder(&bc)
	for _, e := range evs {
		w := &wireEvent{
			Trace:        int(e.ID.Trace),
			Index:        e.ID.Index,
			Kind:         e.Kind,
			Type:         e.Type,
			Text:         e.Text,
			VC:           vclock.DenseOf(e.VC),
			PartnerTrace: int(e.Partner.Trace),
			PartnerIndex: e.Partner.Index,
		}
		if err := enc.Encode(&wireMsg{Event: w}); err != nil {
			return bc.n, err
		}
	}
	return bc.n, nil
}
