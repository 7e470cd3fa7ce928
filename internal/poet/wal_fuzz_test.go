package poet

import (
	"errors"
	"testing"

	"ocep/internal/event"
)

// FuzzWALRecord checks the WAL record decoder two ways. Arbitrary
// payload bytes, as a torn or corrupt segment could hold them, must
// decode or fail with errMalformedRecord — never panic — and whatever
// decodes must survive a re-encode unchanged. An event built from the
// fuzzed fields must round-trip encodeEventRecord exactly.
func FuzzWALRecord(f *testing.F) {
	f.Add(encodeEventRecord(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindSend, MsgID: 7, Type: "send", Text: "x"}),
		"p0", "recv", "", uint32(3), uint8(event.KindReceive), uint64(7))
	f.Add(encodeTraceRecord("explicit"), "sem", "acquire", "lock", uint32(0), uint8(event.KindSyncAcquire), uint64(1))
	f.Add([]byte{}, "", "", "", uint32(0), uint8(0), uint64(0))
	f.Add([]byte{recEvent, 5, 'p'}, "t", "x", "y", uint32(1<<31), uint8(200), uint64(1<<63))
	f.Add([]byte{recTrace, 0}, "t", "", "", uint32(9), uint8(event.KindInternal), uint64(0))
	f.Add([]byte{9, 1, 2, 3}, "t", "", "", uint32(9), uint8(event.KindInternal), uint64(0))
	f.Fuzz(func(t *testing.T, p []byte, trace, typ, text string, seq uint32, kind uint8, msgID uint64) {
		raw, isTrace, err := decodeRecord(p)
		if err != nil {
			if !errors.Is(err, errMalformedRecord) {
				t.Fatalf("decode error %v is not errMalformedRecord", err)
			}
		} else {
			again := encodeEventRecord(raw)
			if isTrace {
				again = encodeTraceRecord(raw.Trace)
			}
			raw2, isTrace2, err := decodeRecord(again)
			if err != nil || raw2 != raw || isTrace2 != isTrace {
				t.Fatalf("re-encoded record decodes to %+v (trace %v), %v; want %+v (trace %v)", raw2, isTrace2, err, raw, isTrace)
			}
		}

		want := RawEvent{Trace: trace, Seq: int(seq) + 1, Kind: event.Kind(kind), MsgID: msgID, Type: typ, Text: text}
		got, isTrace, err := decodeRecord(encodeEventRecord(want))
		if err != nil || isTrace || got != want {
			t.Fatalf("event record round trip = %+v (trace %v), %v; want %+v", got, isTrace, err, want)
		}
	})
}

// TestDecodeRecordNamesMalformedPayloads pins the decoder's verdicts
// on the malformed shapes recovery can meet.
func TestDecodeRecordNamesMalformedPayloads(t *testing.T) {
	ev := encodeEventRecord(RawEvent{Trace: "p0", Seq: 3, Kind: event.KindInternal, Type: "x", Text: "y"})
	for name, p := range map[string][]byte{
		"empty":             {},
		"unknown kind":      {42},
		"truncated event":   ev[:len(ev)-1],
		"zero seq":          encodeEventRecord(RawEvent{Trace: "p0", Kind: event.KindInternal}),
		"negative seq":      encodeEventRecord(RawEvent{Trace: "p0", Seq: -1, Kind: event.KindInternal}),
		"empty trace name":  encodeTraceRecord(""),
		"truncated trace":   encodeTraceRecord("explicit")[:4],
		"oversized length":  {recTrace, 0xff, 0xff, 0x03, 'a'},
		"unterminated seq":  {recEvent, 1, 'p', 0x80},
		"event kind only":   {recEvent},
		"trace kind only":   {recTrace},
		"overlong varint":   {recEvent, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"seq past max int":  append(append([]byte{recEvent, 1, 'p'}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), 1, 0, 0, 0),
		"missing text":      encodeEventRecord(RawEvent{Trace: "p0", Seq: 1, Kind: event.KindInternal})[:5],
		"missing type/text": {recEvent, 2, 'p', '0', 1, 1, 0},
	} {
		if _, _, err := decodeRecord(p); !errors.Is(err, errMalformedRecord) {
			t.Errorf("%s: decodeRecord = %v, want errMalformedRecord", name, err)
		}
	}
	raw, isTrace, err := decodeRecord(ev)
	if err != nil || isTrace || raw != (RawEvent{Trace: "p0", Seq: 3, Kind: event.KindInternal, Type: "x", Text: "y"}) {
		t.Fatalf("valid event record = %+v (trace %v), %v", raw, isTrace, err)
	}
}
