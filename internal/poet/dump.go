package poet

import (
	"compress/gzip"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ocep/internal/event"
)

// dumpHeader identifies the on-disk trace-file format, shared by POET
// dumps and the durability subsystem's snapshots.
type dumpHeader struct {
	Magic   string
	Version int
	// Traces lists the trace names in registration order, so reload
	// reproduces the same trace numbering (and so the same vector-clock
	// layout) regardless of event interleaving.
	Traces []string
	// Events is the number of delivered raw events that follow, in
	// delivery order (a valid linearization: reload never buffers them).
	Events int
	// Pending (version >= 2) is the number of ingested-but-undelivered
	// raw events that follow the delivered section — events buffered
	// awaiting causal partners at dump time. They are part of the
	// acknowledged state: a reporter may have pruned them, so a dump
	// that dropped them would lose data. Version 1 files have none.
	Pending int
}

const (
	dumpMagic   = "OCEP-POET-DUMP"
	dumpVersion = 2
)

// snapshotState is one consistent cut of the collector's replayable
// state, captured under the collector lock and encodable outside it:
// events is an immutable prefix of the linearization, and each raw
// event is rebuilt from it while encoding (see rawOf).
type snapshotState struct {
	traces  []string       // header names, in trace-ID order
	names   []string       // registered names, indexed by trace ID
	events  []*event.Event // delivered, in delivery order
	pending []RawEvent     // buffered, sorted by (trace name, seq)
}

// snapshotStateLocked captures the current replayable state. The
// collector must have enabled RetainLog before the first delivery, and
// no event may have been evicted, or the cut would be silently
// incomplete.
func (c *Collector) snapshotStateLocked() (snapshotState, error) {
	if !c.retainLog {
		return snapshotState{}, fmt.Errorf("poet: dump requires RetainLog before collection")
	}
	if c.retainedFrom > 0 {
		return snapshotState{}, fmt.Errorf(
			"poet: retention was enabled after %d events were already delivered; a dump would silently miss them (call RetainLog before reporting begins)",
			c.retainedFrom)
	}
	if c.trimmedFrom > 0 {
		return snapshotState{}, fmt.Errorf("poet: SetRetention evicted %d delivered events; a dump would silently miss them", c.trimmedFrom)
	}
	n := c.store.NumTraces()
	st := snapshotState{
		traces: make([]string, n),
		names:  make([]string, n),
		events: c.order[:len(c.order):len(c.order)],
	}
	for i := range st.traces {
		st.traces[i] = c.store.TraceName(event.TraceID(i))
		st.names[i] = c.store.RegisteredName(event.TraceID(i))
	}
	for _, m := range c.pending {
		for _, raw := range m {
			st.pending = append(st.pending, raw)
		}
	}
	sort.Slice(st.pending, func(i, j int) bool {
		if st.pending[i].Trace != st.pending[j].Trace {
			return st.pending[i].Trace < st.pending[j].Trace
		}
		return st.pending[i].Seq < st.pending[j].Seq
	})
	return st, nil
}

// encodeSnapshot writes one state cut in the dump format.
func encodeSnapshot(w io.Writer, st snapshotState) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(dumpHeader{
		Magic:   dumpMagic,
		Version: dumpVersion,
		Traces:  st.traces,
		Events:  len(st.events),
		Pending: len(st.pending),
	}); err != nil {
		return fmt.Errorf("poet: encoding dump header: %w", err)
	}
	for i, e := range st.events {
		raw := rawOf(e, st.names[e.ID.Trace])
		if err := enc.Encode(&raw); err != nil {
			return fmt.Errorf("poet: encoding dump event %d: %w", i, err)
		}
	}
	for i := range st.pending {
		if err := enc.Encode(&st.pending[i]); err != nil {
			return fmt.Errorf("poet: encoding pending event %d: %w", i, err)
		}
	}
	return nil
}

// Dump writes the collector's replayable state to w: the delivered
// raw-event log in delivery order, plus any events buffered awaiting
// causal partners. The collector must have been created with RetainLog
// before events were reported; a retention window that misses the start
// of the run is an error, not a silently partial dump.
func (c *Collector) Dump(w io.Writer) error {
	c.mu.Lock()
	st, err := c.snapshotStateLocked()
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return encodeSnapshot(w, st)
}

// DumpFile dumps to a file path. A ".gz" suffix selects gzip
// compression (a million-event dump compresses well; the raw events are
// highly repetitive).
func (c *Collector) DumpFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("poet: creating dump file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("poet: closing dump file: %w", cerr)
		}
	}()
	if strings.HasSuffix(path, ".gz") {
		zw := gzip.NewWriter(f)
		if err := c.Dump(zw); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return fmt.Errorf("poet: finishing compressed dump: %w", err)
		}
		return nil
	}
	return c.Dump(f)
}

// Reload replays a dumped trace file into the collector via the same
// Report interface used for live collection (POET's reload feature). It
// accepts both the v1 format (delivered events only) and v2 (delivered
// plus pending sections) and returns the number of events replayed.
func (c *Collector) Reload(r io.Reader) (int, error) {
	n, _, err := c.reloadSnapshot(r, false)
	return n, err
}

// reloadSnapshot decodes a dump/snapshot stream and reports every event
// into the collector. With lenient set, a stream that ends early (a
// snapshot torn by a crash mid-write) yields the longest valid prefix
// and truncated=true instead of an error; a malformed header still
// fails — there is nothing to salvage before the trace table.
func (c *Collector) reloadSnapshot(r io.Reader, lenient bool) (n int, truncated bool, err error) {
	dec := gob.NewDecoder(r)
	var hdr dumpHeader
	if err := dec.Decode(&hdr); err != nil {
		return 0, false, fmt.Errorf("poet: decoding dump header: %w", err)
	}
	if hdr.Magic != dumpMagic {
		return 0, false, fmt.Errorf("poet: not a POET dump file (magic %q)", hdr.Magic)
	}
	if hdr.Version < 1 || hdr.Version > dumpVersion {
		return 0, false, fmt.Errorf("poet: unsupported dump version %d", hdr.Version)
	}
	for _, name := range hdr.Traces {
		c.RegisterTrace(name)
	}
	total := hdr.Events + hdr.Pending
	for i := 0; i < total; i++ {
		var raw RawEvent
		if err := dec.Decode(&raw); err != nil {
			if lenient {
				return n, true, nil
			}
			return n, false, fmt.Errorf("poet: decoding dump event %d: %w", i, err)
		}
		if err := c.Report(raw); err != nil {
			if lenient {
				return n, true, nil
			}
			return n, false, fmt.Errorf("poet: replaying dump event %d: %w", i, err)
		}
		n++
	}
	return n, false, nil
}

// ReloadFile reloads from a file path, transparently decompressing
// ".gz" dumps. A directory path reloads a durability data directory
// (snapshot plus write-ahead log) instead; see ReloadDir.
func (c *Collector) ReloadFile(path string) (n int, err error) {
	if fi, serr := os.Stat(path); serr == nil && fi.IsDir() {
		stats, err := ReloadDir(c, path)
		return stats.Delivered + stats.Pending, err
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("poet: opening dump file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("poet: closing dump file: %w", cerr)
		}
	}()
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return 0, fmt.Errorf("poet: opening compressed dump: %w", err)
		}
		defer func() {
			if cerr := zr.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("poet: closing compressed dump: %w", cerr)
			}
		}()
		return c.Reload(zr)
	}
	return c.Reload(f)
}

// errNoSnapshot distinguishes "no snapshot yet" from a read failure.
var errNoSnapshot = errors.New("poet: no snapshot")

// reloadSnapshotFile lenient-reloads a snapshot file into c. Returns
// errNoSnapshot when the file does not exist.
func (c *Collector) reloadSnapshotFile(path string) (n int, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, errNoSnapshot
		}
		return 0, false, fmt.Errorf("poet: opening snapshot: %w", err)
	}
	defer f.Close()
	return c.reloadSnapshot(f, true)
}
