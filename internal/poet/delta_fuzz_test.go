package poet

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"ocep/internal/vclock"
)

// FuzzDeltaDecode feeds arbitrary frame sequences, as a peer on the
// network could send them, into one fresh decoder per representation.
// Every frame must decode to a clock or fail with errMalformedDelta or
// the out-of-sync error — never panic — and no decoded clock may reach
// past maxWireTrace, which bounds what a frame can make the decoder
// allocate.
//
// The input is a sequence of frames. Each frame is a header byte (bit 0:
// VCFull), a count byte for the trace indices and one for the values
// (each mod 8), then that many little-endian int32 indices and values;
// a short tail is zero-padded. Only the first 8 frames are decoded: a
// frame naming the ceiling index costs a 1 MiB baseline copy, and the
// fuzzer should spend its time on frame shapes, not on copying.
func FuzzDeltaDecode(f *testing.F) {
	frame := func(full bool, tr, n []int32) []byte {
		hdr := byte(0)
		if full {
			hdr = 1
		}
		out := []byte{hdr, byte(len(tr)), byte(len(n))}
		for _, v := range append(append([]int32{}, tr...), n...) {
			out = binary.LittleEndian.AppendUint32(out, uint32(v))
		}
		return out
	}
	f.Add(frame(true, []int32{0, 3}, []int32{1, 2}))
	f.Add(append(frame(true, []int32{1}, []int32{4}), frame(false, []int32{1, 0}, []int32{0, 9})...))
	f.Add(frame(true, []int32{0, 1}, []int32{1}))
	f.Add(frame(true, []int32{-1}, []int32{1}))
	f.Add(frame(true, []int32{maxWireTrace + 1}, []int32{1}))
	f.Add(frame(false, []int32{0}, []int32{1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		dense, sparse := &deltaDecoder{}, &deltaDecoder{sparse: true}
		word := func() int32 {
			var b [4]byte
			data = data[copy(b[:], data):]
			return int32(binary.LittleEndian.Uint32(b[:]))
		}
		for frames := 0; len(data) >= 3 && frames < 8; frames++ {
			w := &wireEvent{VCFull: data[0]&1 == 1}
			nTr, nN := int(data[1]%8), int(data[2]%8)
			data = data[3:]
			for i := 0; i < nTr; i++ {
				w.VCTr = append(w.VCTr, word())
			}
			for i := 0; i < nN; i++ {
				w.VCN = append(w.VCN, word())
			}
			for _, d := range []*deltaDecoder{dense, sparse} {
				vc, err := d.decode(w)
				if err != nil {
					if vc != nil {
						t.Fatalf("decode returned both %v and %v", vc, err)
					}
					if !errors.Is(err, errMalformedDelta) && !strings.Contains(err.Error(), "out of sync") {
						t.Fatalf("decode of %+v: unnamed error %v", w, err)
					}
					continue
				}
				switch v := vc.(type) {
				case vclock.VC:
					if len(v) > maxWireTrace+1 {
						t.Fatalf("decoded a %d-entry clock, past the ceiling %d", len(v), maxWireTrace)
					}
				default:
					v.Range(func(tr int, _ int32) bool {
						if tr > maxWireTrace {
							t.Fatalf("decoded clock reaches trace %d, past the ceiling %d", tr, maxWireTrace)
						}
						return true
					})
				}
			}
		}
	})
}
