package poet

import (
	"bufio"
	"encoding/gob"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ocep/internal/telemetry"
)

// frameWriter is the one writer of a stream link's gob frames. Frames
// are encoded into a buffer and reach the socket when the batch that
// produced them is drained, so a batch of frames costs one write instead
// of one per frame. The byte stream is exactly what a bare gob.Encoder
// on the connection would produce; only its split into TCP segments
// changes.
//
// Send encodes one frame and flushes at once (handshakes, acks,
// heartbeats, drain and End frames); Batch encodes a whole batch under
// one lock, then flushes once. Nothing waits on a timer: a batch is
// flushed the moment it is drained.
type frameWriter struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *gob.Encoder
	stats *frameStats
}

// frameStats counts the frames and socket writes of every link sharing
// it. A flush is one write of buffered frames to the socket: one per
// drained batch, more when a batch outgrows the buffer.
type frameStats struct {
	frames, flushes       atomic.Int64
	telFrames, telFlushes *telemetry.Counter
}

// newFrameWriter buffers frames for conn. w is the byte sink under the
// buffer (conn itself, or a countingWriter around it, which then counts
// only bytes that reached the socket); nil means conn.
func newFrameWriter(conn net.Conn, w io.Writer, timeout time.Duration, stats *frameStats) *frameWriter {
	if w == nil {
		w = conn
	}
	bw := bufio.NewWriter(&socketWriter{conn: conn, w: w, timeout: timeout, stats: stats})
	return &frameWriter{bw: bw, enc: gob.NewEncoder(bw), stats: stats}
}

// socketWriter is the writer under the frame buffer. It arms the write
// deadline before every write that leaves the buffer, so the deadline
// bounds each socket write however long a batch takes to encode (a
// replica catching up may be sent a whole log suffix in one batch), and
// counts the write as a flush.
type socketWriter struct {
	conn    net.Conn
	w       io.Writer
	timeout time.Duration
	stats   *frameStats
}

func (s *socketWriter) Write(p []byte) (int, error) {
	// A connection that cannot take a deadline fails the write below.
	_ = s.conn.SetWriteDeadline(time.Now().Add(s.timeout))
	s.stats.flushes.Add(1)
	s.stats.telFlushes.Inc()
	return s.w.Write(p)
}

// Send encodes one frame and flushes it.
func (fw *frameWriter) Send(v any) error {
	return fw.Batch(func(queue func(any) error) error { return queue(v) })
}

// Batch runs fill, which queues frames through queue, then flushes them
// once. The lock covers the whole batch, so frames from other
// goroutines (heartbeats) never interleave with it.
func (fw *frameWriter) Batch(fill func(queue func(v any) error) error) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	n := int64(0)
	err := fill(func(v any) error {
		n++
		return fw.enc.Encode(v)
	})
	// Counted before the flush: a peer that has read the frames must
	// find them counted.
	fw.stats.frames.Add(n)
	fw.stats.telFrames.Add(n)
	if err == nil {
		err = fw.bw.Flush()
	}
	return err
}
