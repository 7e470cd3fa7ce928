package main

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"ocep"
	"ocep/internal/event"
	"ocep/internal/poet"
	"ocep/internal/shard"
)

// Run phases, as seen by the recording sites on every goroutine.
const (
	phaseSetup int32 = iota
	phaseNominal
	phaseBurst
	phaseDone
)

const (
	// traceBlock alternates tracing on and off during a traced run's
	// nominal phase, so one run yields both traced and untraced
	// latencies under the same conditions (trace.overhead_frac).
	traceBlock = int64(50 * time.Millisecond)
	// backlogEvery is the cadence of the reported-minus-consumed samples
	// that decide whether the nominal rate was sustainable.
	backlogEvery = int64(50 * time.Millisecond)
	// reporterWindow is the reporter's default unacked-event buffer
	// (defaultReporterBuffer in internal/poet/client.go): Report blocks
	// while this many events await an ack. TestReporterWindow fails if
	// the two differ.
	reporterWindow = 8192
)

// runner holds one run's input, clock and measurements. The generator
// (main goroutine) and the monitor's Run goroutine write disjoint
// fields; the atomics order the hand-offs between them.
type runner struct {
	events   []ocep.RawEvent
	nominalN int
	gidx     [][]int32 // [trace position][index-1] -> global event index
	tr       *tracer
	epoch    time.Time
	period   float64 // ns between due times in the nominal phase

	phase      atomic.Int32
	phaseStart atomic.Int64 // due(i) = phaseStart + i*period
	phaseSpan  atomic.Int32

	// Written by the monitor goroutine.
	doneAt      []int64 // nominal event -> when the monitor finished matching it
	retAt       []int64 // consumed ordinal -> when Next returned it
	order       []int32 // consumed ordinal -> global event index
	consumed    atomic.Int64
	completed   atomic.Int64 // events whose matching (and match handling) finished
	monitorDone atomic.Bool  // Monitor.Run returned: nothing more will be consumed
	nextWait    int64        // nominal phase: time blocked in Next
	detect      []sample     // nominal matches: latest due time, onMatch time - that
	set         matchSet
	pumped      *atomic.Int64 // sharded: events the merge pulled off shard streams
	mergeMax    int64

	// Written by the generator.
	late      []int64
	reportErr error // last Report/Flush error; its events are never consumed
	backlog   []int64
	blocked   int   // traced burst: Report calls that found the window full
	blockedNs int64 // traced burst: time spent in those calls
	reports   int   // traced burst: Report calls
	burstNs   int64 // closed-loop phase wall time
	peak      float64
	nominalNs int64 // nominal phase wall time, start to drained
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

func (r *runner) due(i int32) int64 {
	return r.phaseStart.Load() + int64(float64(i)*r.period)
}

// tracing reports whether a recording site should emit spans now.
func (r *runner) tracing(now int64) bool {
	if r.tr == nil {
		return false
	}
	switch r.phase.Load() {
	case phaseNominal:
		return ((now-r.phaseStart.Load())/traceBlock)%2 == 1
	case phaseBurst:
		return true
	}
	return false
}

// tracedDue reports whether a latency sample started in a traced block.
func (r *runner) tracedDue(x sample) bool {
	return r.tr != nil && ((x.due-r.phaseStart.Load())/traceBlock)%2 == 1
}

func (r *runner) global(t *traceTable, id event.ID) int32 {
	pos := t.local(id.Trace)
	if pos < 0 || id.Index < 1 || id.Index > len(r.gidx[pos]) {
		return -1
	}
	return r.gidx[pos][id.Index-1]
}

// source wraps the monitor's event stream to time it from outside: the
// wait inside Next, and the gap from one Next return to the next Next
// call, which is the Monitor matching the returned event and running
// the match handler.
type source struct {
	inner    poet.EventSource
	r        *runner
	names    *traceTable
	prev     int32
	feedSpan int32
}

func (s *source) Next() (*event.Event, error) {
	r := s.r
	now := r.now()
	if s.prev >= 0 {
		if int(s.prev) < r.nominalN {
			r.doneAt[s.prev] = now
		}
		r.tr.close(s.feedSpan, now)
		s.feedSpan = -1
		r.completed.Add(1)
	}
	s.prev = -1
	e, err := s.inner.Next()
	ret := r.now()
	if err != nil {
		return nil, err
	}
	gi := r.global(s.names, e.ID)
	if gi < 0 {
		return nil, fmt.Errorf("monitor stream yielded unknown event %v", e.ID)
	}
	s.prev = gi
	if r.phase.Load() == phaseNominal {
		r.nextWait += ret - now
	}
	if r.pumped != nil {
		if b := r.pumped.Load() - r.consumed.Load() - 1; b > r.mergeMax {
			r.mergeMax = b
		}
	}
	n := r.consumed.Load()
	r.retAt[n] = ret
	r.order[n] = gi
	r.consumed.Store(n + 1)
	if r.tracing(ret) {
		parent := r.phaseSpan.Load()
		r.tr.add(spanNext, parent, gi, now, ret)
		s.feedSpan = r.tr.open(spanFeed, parent, gi, ret)
	}
	return e, nil
}

func (s *source) TraceName(id event.TraceID) (string, bool) { return s.inner.TraceName(id) }

// onMatch is the benchmark's match handler: it folds the match into the
// digest compared with the oracle and records its detection latency.
func (s *source) onMatch(m ocep.Match) {
	r := s.r
	t := r.now()
	r.set.add(signature(m, s.names))
	latest, nominal := int32(-1), true
	for _, e := range m.Events {
		gi := r.global(s.names, e.ID)
		if gi < 0 || int(gi) >= r.nominalN {
			nominal = false
			break
		}
		if gi > latest {
			latest = gi
		}
	}
	if nominal && latest >= 0 {
		due := r.due(latest)
		r.detect = append(r.detect, sample{due, t - due})
	}
	if s.feedSpan >= 0 {
		r.tr.add(spanOnMatch, s.feedSpan, s.prev, t, r.now())
	}
}

// countedStream counts the events a merge pump pulls off one shard's
// stream, so the merge's own backlog is visible from outside.
type countedStream struct {
	inner *poet.MonitorClient
	n     *atomic.Int64
}

func (c countedStream) Next() (*event.Event, error) {
	e, err := c.inner.Next()
	if err == nil {
		c.n.Add(1)
	}
	return e, err
}

func (c countedStream) TraceName(id event.TraceID) (string, bool) { return c.inner.TraceName(id) }

func (c countedStream) Close() error { return c.inner.Close() }

// windowReporter notes, in a traced burst, whether a Report call found
// the reporter's unacked window full and so had to wait for an ack.
type windowReporter struct {
	rep *ocep.Reporter
	r   *runner
}

func (w windowReporter) Report(e ocep.RawEvent) error {
	if w.r.tr == nil || w.r.phase.Load() != phaseBurst {
		return w.rep.Report(e)
	}
	st := w.rep.Stats()
	w.r.reports++
	if st.Reported-st.Acked < reporterWindow {
		return w.rep.Report(e)
	}
	w.r.blocked++
	t := w.r.now()
	err := w.rep.Report(e)
	w.r.blockedNs += w.r.now() - t
	return err
}

// clients are a deployment's connected reporters and monitor stream.
type clients struct {
	reporters []*ocep.Reporter
	sink      shard.TraceReporter[ocep.RawEvent]
	router    *shard.Router[ocep.RawEvent]
	stream    interface {
		poet.EventSource
		io.Closer
	}
}

// connect dials the reporters and the monitor stream: one reporter and
// one monitor on the deployment's pool, or one reporter per shard behind
// a shard.Router and a merged monitor over per-shard streams.
func connect(cl *cluster, r *runner) (*clients, error) {
	c := &clients{}
	fail := func(err error) (*clients, error) {
		c.close()
		return nil, err
	}
	if len(cl.pools) == 1 {
		rep, err := ocep.DialReporter(cl.pools[0])
		if err != nil {
			return fail(err)
		}
		c.reporters = append(c.reporters, rep)
		c.sink = windowReporter{rep: rep, r: r}
		mc, err := ocep.DialMonitor(cl.pools[0])
		if err != nil {
			return fail(err)
		}
		c.stream = mc
		return c, nil
	}
	// Router keys are fixed names rather than addresses, so trace
	// placement does not depend on which ports the run was given.
	tier := make(map[string]shard.TraceReporter[ocep.RawEvent], len(cl.pools))
	for i, p := range cl.pools {
		rep, err := ocep.DialReporter(p)
		if err != nil {
			return fail(err)
		}
		c.reporters = append(c.reporters, rep)
		tier[fmt.Sprintf("shard-%d", i)] = windowReporter{rep: rep, r: r}
	}
	router, err := shard.NewRouter(tier, func(e ocep.RawEvent) string { return e.Trace })
	if err != nil {
		return fail(err)
	}
	c.router, c.sink = router, router
	r.pumped = new(atomic.Int64)
	streams := make([]shard.Stream, 0, len(cl.pools))
	for _, p := range cl.pools {
		mc, err := ocep.DialMonitor(p)
		if err != nil {
			for _, s := range streams {
				s.(countedStream).Close()
			}
			return fail(err)
		}
		streams = append(streams, countedStream{inner: mc, n: r.pumped})
	}
	merged, err := shard.NewMergedClient(streams)
	if err != nil {
		return fail(err)
	}
	c.stream = merged
	return c, nil
}

func (c *clients) flush() error {
	for _, rep := range c.reporters {
		if err := rep.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func (c *clients) close() {
	if c.stream != nil {
		c.stream.Close()
	}
	for _, rep := range c.reporters {
		rep.Close()
	}
}

// sleepUntil sleeps until the run clock reads t. Wake-ups overshoot
// (an idle Go runtime waits for timers in whole milliseconds), so the
// open loop sends every event already due on each wake-up.
func (r *runner) sleepUntil(t int64) {
	if d := t - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// nominal runs the open-loop phase: event i is due at phaseStart +
// i*period and is reported as soon as the generator reaches it; the
// generator's lateness is recorded per event. It returns once the
// monitor has finished matching every nominal event, or at deadline.
func (r *runner) nominal(c *clients, deadline time.Time) {
	start := r.now()
	r.phaseStart.Store(start)
	r.phaseSpan.Store(r.tr.open(spanPhase, 0, -1, start))
	r.phase.Store(phaseNominal)
	nextSample := start
	for i := 0; i < r.nominalN; {
		now := r.now()
		for i < r.nominalN && r.due(int32(i)) <= now {
			t := r.now()
			r.late[i] = t - r.due(int32(i))
			if err := c.sink.Report(r.events[i]); err != nil {
				r.reportErr = err
			}
			if r.tracing(t) {
				r.tr.add(spanReport, r.phaseSpan.Load(), int32(i), t, r.now())
			}
			i++
		}
		if now >= nextSample {
			r.backlog = append(r.backlog, int64(i)-r.consumed.Load())
			nextSample += backlogEvery
		}
		if i < r.nominalN {
			r.sleepUntil(r.due(int32(i)))
		}
	}
	r.timedFlush(c)
	r.waitCompleted(int64(r.nominalN), deadline)
	end := r.now()
	r.nominalNs = end - start
	r.tr.close(r.phaseSpan.Load(), end)
}

// burst runs the closed-loop phase: the rest of the input, in
// burstRounds equal rounds. Each round is reported as fast as Report
// accepts it and timed from its first Report until the monitor yields
// its last event; the next round starts once the monitor has finished
// matching it. peak_evps is the median round's rate, so one round that
// the host slowed down does not set it. A round is many reporter
// windows long: a reporter whose unacked window is full waits for the
// server's next periodic ack, so a round only a few windows long would
// measure where its start fell in the ack cycle.
func (r *runner) burst(c *clients, deadline time.Time) {
	r.phase.Store(phaseBurst)
	start := r.now()
	r.phaseSpan.Store(r.tr.open(spanPhase, 0, -1, start))
	var rates []float64
	n := len(r.events) - r.nominalN
	for k := 0; k < burstRounds; k++ {
		lo, hi := r.nominalN+k*n/burstRounds, r.nominalN+(k+1)*n/burstRounds
		t0 := r.now()
		for i := lo; i < hi; i++ {
			t := r.now()
			if err := c.sink.Report(r.events[i]); err != nil {
				r.reportErr = err
			}
			if r.tr != nil {
				r.tr.add(spanReport, r.phaseSpan.Load(), int32(i), t, r.now())
			}
		}
		r.timedFlush(c)
		if !r.waitConsumed(int64(hi), deadline) {
			break
		}
		rates = append(rates, float64(hi-lo)/(float64(r.retAt[hi-1]-t0)/1e9))
		if !r.waitCompleted(int64(hi), deadline) {
			break
		}
	}
	if len(rates) == burstRounds {
		r.peak = median(rates)
	}
	fmt.Fprintf(os.Stderr, "pipebench: burst rounds (ev/s): %.0f\n", rates)
	r.burstNs = r.now() - start
	r.tr.close(r.phaseSpan.Load(), r.now())
}

func (r *runner) timedFlush(c *clients) {
	t := r.now()
	if err := c.flush(); err != nil {
		r.reportErr = err
	}
	r.tr.add(spanFlush, r.phaseSpan.Load(), -1, t, r.now())
}

func (r *runner) waitConsumed(n int64, deadline time.Time) bool {
	for r.consumed.Load() < n {
		if r.monitorDone.Load() || time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

func (r *runner) waitCompleted(n int64, deadline time.Time) bool {
	for r.completed.Load() < n {
		if r.monitorDone.Load() || time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
