package main

import (
	"fmt"
	"sort"
	"time"

	"ocep"
)

// traceTable maps collector trace IDs to the generator's trace names'
// positions. The oracle's collector and each poetd number traces in
// their own order, so matches are compared by name, never by ID.
type traceTable struct {
	index map[string]int32
	names []string
	ids   []int32 // TraceID -> position+1; 0 = not resolved yet
	name  func(ocep.TraceID) (string, bool)
}

func newTraceTable(events []ocep.RawEvent) *traceTable {
	t := &traceTable{index: make(map[string]int32)}
	for _, e := range events {
		if _, ok := t.index[e.Trace]; !ok {
			t.index[e.Trace] = int32(len(t.names))
			t.names = append(t.names, e.Trace)
		}
	}
	return t
}

// bind returns a resolver for one collector's IDs. The resolver is for
// one goroutine: it caches into a slice owned by the copy.
func (t *traceTable) bind(name func(ocep.TraceID) (string, bool)) *traceTable {
	return &traceTable{index: t.index, names: t.names, name: name}
}

// local returns the generator position of a collector trace ID, or -1.
func (t *traceTable) local(id ocep.TraceID) int32 {
	i := int(id)
	if i < len(t.ids) && t.ids[i] != 0 {
		return t.ids[i] - 1
	}
	n, ok := t.name(id)
	if !ok {
		return -1
	}
	pos, ok := t.index[n]
	if !ok {
		return -1
	}
	for len(t.ids) <= i {
		t.ids = append(t.ids, 0)
	}
	t.ids[i] = pos + 1
	return pos
}

// matchSet is an order-independent multiset digest of match signatures:
// the count, the wrapping sum and the xor of a mixed 64-bit hash of each
// match's (leaf, trace name, index) sequence. Keeping three folds
// instead of every signature keeps a million-match run in constant
// memory.
type matchSet struct {
	N, Sum, Xor uint64
}

func (s *matchSet) add(h uint64) {
	s.N++
	s.Sum += h
	s.Xor ^= mix64(h)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// signature hashes one match by trace positions and per-trace indexes,
// in leaf order.
func signature(m ocep.Match, t *traceTable) uint64 {
	h := uint64(1469598103934665603)
	for _, e := range m.Events {
		h = (h ^ uint64(uint32(t.local(e.ID.Trace)))) * 1099511628211
		h = (h ^ uint64(e.ID.Index)) * 1099511628211
	}
	return mix64(h)
}

func coverageSignatures(pairs []ocep.CoveredPair, t *traceTable) []string {
	out := make([]string, 0, len(pairs))
	for _, p := range pairs {
		out = append(out, fmt.Sprintf("leaf%d@%d", p.Leaf, t.local(p.Trace)))
	}
	sort.Strings(out)
	return out
}

// outcome is what a run must agree on with the oracle. The monitor
// runs in the matcher's default (the paper's) reporting mode, whose
// match set can depend on which linearization of the causal order it
// sees: on the atomicity shape the duplicate rule keeps different
// history entries under different interleavings. A run is therefore
// checked twice. Against an oracle fed the events in the order the
// pipeline's monitor received them, everything must be equal: the match
// set, coverage and the semantic matcher counters. Against the oracle
// fed the generated order, only what no linearization changes must be
// equal: coverage and the event and trigger counts. Search-effort
// counters (candidates, backtracks) are never compared.
type outcome struct {
	Matches  matchSet
	Coverage []string
	Stats    ocep.MatcherStats
}

// diff compares o with want; sameOrder says both saw one linearization.
func (o outcome) diff(want outcome, sameOrder bool) error {
	if len(o.Coverage) != len(want.Coverage) {
		return fmt.Errorf("coverage differs: got %v, oracle %v", o.Coverage, want.Coverage)
	}
	for i := range o.Coverage {
		if o.Coverage[i] != want.Coverage[i] {
			return fmt.Errorf("coverage differs: got %v, oracle %v", o.Coverage, want.Coverage)
		}
	}
	g, w := o.Stats, want.Stats
	if g.EventsSeen != w.EventsSeen || g.EventsMatched != w.EventsMatched ||
		g.Triggers != w.Triggers || g.TriggersAborted != w.TriggersAborted {
		return fmt.Errorf("matcher stats differ: got %+v, oracle %+v", g, w)
	}
	if !sameOrder {
		return nil
	}
	if o.Matches != want.Matches {
		return fmt.Errorf("match sets differ: got %+v, oracle %+v", o.Matches, want.Matches)
	}
	if g.CompleteMatches != w.CompleteMatches || g.Reported != w.Reported || g.Redundant != w.Redundant {
		return fmt.Errorf("matcher stats differ: got %+v, oracle %+v", g, w)
	}
	return nil
}

// runOracle feeds the input, in order, to an in-process collector with
// a synchronously attached monitor: no wire, no processes. Every order
// it is given is a linearization of the causal order, so the collector
// delivers each event as it is reported. It returns the outcome and the
// collector+matcher time.
func runOracle(pattern string, events []ocep.RawEvent, table *traceTable) (outcome, time.Duration, error) {
	c := ocep.NewCollector()
	store := c.Store()
	names := table.bind(func(id ocep.TraceID) (string, bool) { return store.TraceName(id), true })
	var set matchSet
	mon, err := ocep.NewMonitor(pattern,
		ocep.WithMatchHandler(func(m ocep.Match) { set.add(signature(m, names)) }))
	if err != nil {
		return outcome{}, 0, err
	}
	mon.Attach(c)
	start := time.Now()
	for i, e := range events {
		if err := c.Report(e); err != nil {
			return outcome{}, 0, fmt.Errorf("oracle: event %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)
	mon.Detach()
	if err := mon.Err(); err != nil {
		return outcome{}, 0, fmt.Errorf("oracle monitor: %w", err)
	}
	if p := c.Pending(); p != 0 {
		return outcome{}, 0, fmt.Errorf("oracle: %d events never became deliverable", p)
	}
	return outcome{Matches: set, Coverage: coverageSignatures(mon.Coverage(), names), Stats: mon.Stats()}, elapsed, nil
}
