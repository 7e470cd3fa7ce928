package ocep_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ocep/internal/baseline"
	"ocep/internal/bench"
	"ocep/internal/core"
	"ocep/internal/event"
	"ocep/internal/poet"
	"ocep/internal/stats"
)

// benchEvents sizes the cached workloads driving the Go benchmarks. The
// full-scale reproduction (the paper runs each case past one million
// events) is cmd/ocepbench; these benchmarks measure the same per-event
// matching cost on smaller streams so `go test -bench=.` stays fast.
const benchEvents = 20_000

var (
	wlMu    sync.Mutex
	wlCache = map[string]*bench.Workload{}
)

// cachedWorkload generates (once) and returns the workload for a config.
func cachedWorkload(b *testing.B, cfg bench.GenConfig) *bench.Workload {
	b.Helper()
	key := fmt.Sprintf("%s/%d/%d/%d", cfg.Case, cfg.Traces, cfg.TargetEvents, cfg.CycleLen)
	wlMu.Lock()
	defer wlMu.Unlock()
	if wl, ok := wlCache[key]; ok {
		return wl
	}
	wl, err := bench.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wlCache[key] = wl
	return wl
}

// benchmarkReplay measures the per-event matching cost of replaying a
// workload's delivery stream, reporting the median and maximum
// per-terminating-event time as custom metrics (the paper's boxplot
// quantities).
func benchmarkReplay(b *testing.B, wl *bench.Workload, opts core.Options) {
	b.Helper()
	pat, err := bench.CompilePattern(wl.Pattern)
	if err != nil {
		b.Fatal(err)
	}
	ordered := wl.Collector.Ordered()
	var trigger []time.Duration
	m := core.NewMatcherOn(pat, wl.Collector.Store(), opts)
	prevTriggers := 0
	pos := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos == len(ordered) {
			// Stream exhausted: restart with a fresh matcher (the
			// store is shared and immutable during replay).
			b.StopTimer()
			m = core.NewMatcherOn(pat, wl.Collector.Store(), opts)
			prevTriggers = 0
			pos = 0
			b.StartTimer()
		}
		t0 := time.Now()
		if _, err := m.Feed(ordered[pos]); err != nil {
			b.Fatal(err)
		}
		if s := m.Stats(); s.Triggers > prevTriggers {
			trigger = append(trigger, time.Since(t0))
			prevTriggers = s.Triggers
		}
		pos++
	}
	b.StopTimer()
	if len(trigger) > 0 {
		box := stats.NewBox(stats.Durations(trigger))
		b.ReportMetric(box.Median, "us/trigger-med")
		b.ReportMetric(box.TopWhisker, "us/trigger-whisker")
	}
}

// BenchmarkFig6Deadlock reproduces Figure 6: deadlock-cycle detection
// cost across trace counts.
func BenchmarkFig6Deadlock(b *testing.B) {
	for _, traces := range []int{10, 20, 50} {
		b.Run(fmt.Sprintf("traces-%d", traces), func(b *testing.B) {
			wl := cachedWorkload(b, bench.GenConfig{
				Case: bench.CaseDeadlock, Traces: traces,
				TargetEvents: benchEvents, Seed: int64(traces), CycleLen: 2,
			})
			benchmarkReplay(b, wl, bench.PaperOptions())
		})
	}
}

// BenchmarkFig7MessageRace reproduces Figure 7: message-race detection
// cost across trace counts.
func BenchmarkFig7MessageRace(b *testing.B) {
	for _, traces := range []int{10, 20, 50} {
		b.Run(fmt.Sprintf("traces-%d", traces), func(b *testing.B) {
			wl := cachedWorkload(b, bench.GenConfig{
				Case: bench.CaseMsgRace, Traces: traces,
				TargetEvents: benchEvents, Seed: int64(traces),
			})
			benchmarkReplay(b, wl, bench.PaperOptions())
		})
	}
}

// BenchmarkFig8Atomicity reproduces Figure 8: atomicity-violation
// detection cost across thread counts.
func BenchmarkFig8Atomicity(b *testing.B) {
	for _, traces := range []int{10, 20, 50} {
		b.Run(fmt.Sprintf("traces-%d", traces), func(b *testing.B) {
			wl := cachedWorkload(b, bench.GenConfig{
				Case: bench.CaseAtomicity, Traces: traces,
				TargetEvents: benchEvents, Seed: int64(traces),
			})
			benchmarkReplay(b, wl, bench.PaperOptions())
		})
	}
}

// BenchmarkFig9Ordering reproduces Figure 9: ordering-bug detection cost
// across node counts (near-linear growth demonstrates the relevant-trace
// isolation the paper highlights in Section V-D).
func BenchmarkFig9Ordering(b *testing.B) {
	for _, traces := range []int{50, 100, 500} {
		b.Run(fmt.Sprintf("traces-%d", traces), func(b *testing.B) {
			wl := cachedWorkload(b, bench.GenConfig{
				Case: bench.CaseOrdering, Traces: traces,
				TargetEvents: benchEvents, Seed: int64(traces),
			})
			benchmarkReplay(b, wl, bench.PaperOptions())
		})
	}
}

// BenchmarkFig10Table reproduces the Figure 10 table: each case at its
// middle trace count (Q1/median/Q3/whisker appear as the custom trigger
// metrics).
func BenchmarkFig10Table(b *testing.B) {
	cases := []struct {
		c      bench.Case
		traces int
	}{
		{bench.CaseDeadlock, 20},
		{bench.CaseMsgRace, 20},
		{bench.CaseAtomicity, 20},
		{bench.CaseOrdering, 100},
	}
	for _, tc := range cases {
		b.Run(string(tc.c), func(b *testing.B) {
			wl := cachedWorkload(b, bench.GenConfig{
				Case: tc.c, Traces: tc.traces,
				TargetEvents: benchEvents, Seed: int64(tc.traces), CycleLen: 2,
			})
			benchmarkReplay(b, wl, bench.PaperOptions())
		})
	}
}

// BenchmarkFig3Strategies contrasts the three strategies of Figure 3 on
// the ordering workload: brute-force enumeration, an n^2 sliding window,
// and OCEP.
func BenchmarkFig3Strategies(b *testing.B) {
	wl := cachedWorkload(b, bench.GenConfig{
		Case: bench.CaseOrdering, Traces: 10, TargetEvents: 4_000, Seed: 3,
	})
	pat, err := bench.CompilePattern(wl.Pattern)
	if err != nil {
		b.Fatal(err)
	}
	ordered := wl.Collector.Ordered()
	st := wl.Collector.Store()

	b.Run("ocep", func(b *testing.B) {
		benchmarkReplay(b, wl, bench.PaperOptions())
	})
	b.Run("window", func(b *testing.B) {
		w := baseline.NewWindowMatcher(pat, st, 100)
		pos := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pos == len(ordered) {
				b.StopTimer()
				w = baseline.NewWindowMatcher(pat, st, 100)
				pos = 0
				b.StartTimer()
			}
			w.Feed(ordered[pos])
			pos++
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.AllMatches(pat, st)
		}
	})
}

// BenchmarkBaselineDepGraph measures the dependency-graph deadlock
// detector on the same stream as BenchmarkFig6Deadlock (Section V-C1's
// comparison).
func BenchmarkBaselineDepGraph(b *testing.B) {
	wl := cachedWorkload(b, bench.GenConfig{
		Case: bench.CaseDeadlock, Traces: 20,
		TargetEvents: benchEvents, Seed: 20, CycleLen: 2,
	})
	st := wl.Collector.Store()
	ordered := wl.Collector.Ordered()
	det := baseline.NewDepGraphDetector(st.NumTraces(), 0)
	pos := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos == len(ordered) {
			b.StopTimer()
			det = baseline.NewDepGraphDetector(st.NumTraces(), 0)
			pos = 0
			b.StartTimer()
		}
		det.Feed(st, ordered[pos])
		pos++
	}
}

// BenchmarkBaselineRaceChecker measures the classical vector-timestamp
// race checker on the same stream as BenchmarkFig7MessageRace (Section
// V-C2's comparison).
func BenchmarkBaselineRaceChecker(b *testing.B) {
	wl := cachedWorkload(b, bench.GenConfig{
		Case: bench.CaseMsgRace, Traces: 20,
		TargetEvents: benchEvents, Seed: 20,
	})
	st := wl.Collector.Store()
	ordered := wl.Collector.Ordered()
	rc := baseline.NewRaceChecker()
	pos := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos == len(ordered) {
			b.StopTimer()
			rc = baseline.NewRaceChecker()
			pos = 0
			b.StartTimer()
		}
		rc.Feed(st, ordered[pos])
		pos++
	}
}

// BenchmarkAblation quantifies each design choice on the ordering
// workload: the full matcher vs no backjumping vs no causal domains vs
// no duplicate pruning.
func BenchmarkAblation(b *testing.B) {
	wl := cachedWorkload(b, bench.GenConfig{
		Case: bench.CaseOrdering, Traces: 100,
		TargetEvents: benchEvents, Seed: 100,
	})
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", bench.PaperOptions()},
		{"static-order", core.Options{RepresentativeOnly: true, StaticOrder: true}},
		{"no-backjump", core.Options{RepresentativeOnly: true, DisableBackjumping: true}},
		{"no-domains", core.Options{RepresentativeOnly: true, DisableCausalDomains: true, DisableBackjumping: true}},
		{"no-pruning", core.Options{RepresentativeOnly: true, DisablePruning: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchmarkReplay(b, wl, v.opts)
		})
	}
}

// BenchmarkCollector measures raw collection cost: causality
// reconstruction and vector-clock assignment per reported event. One op
// replays the whole stream into a fresh collector, so the per-event
// figures (ns/event, allocs/event) include the collector's warm-up at a
// fixed share and do not depend on -benchtime.
func BenchmarkCollector(b *testing.B) {
	wl := cachedWorkload(b, bench.GenConfig{
		Case: bench.CaseOrdering, Traces: 50,
		TargetEvents: benchEvents, Seed: 50,
	})
	// Extract the raw linearized stream once, then replay it into fresh
	// collectors.
	ordered := wl.Collector.Ordered()
	st := wl.Collector.Store()
	type raw struct {
		trace string
		seq   int
		kind  event.Kind
		msgID uint64
	}
	raws := make([]raw, len(ordered))
	msg := uint64(0)
	ids := map[event.ID]uint64{}
	for i, e := range ordered {
		r := raw{trace: st.TraceName(e.ID.Trace), seq: e.ID.Index, kind: e.Kind}
		switch {
		case e.Kind == event.KindSend || e.Kind == event.KindSyncRelease:
			msg++
			ids[e.ID] = msg
			r.msgID = msg
		case e.Kind == event.KindReceive || e.Kind == event.KindSyncAcquire:
			r.msgID = ids[e.Partner]
		}
		raws[i] = r
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := poet.NewCollector()
		for _, r := range raws {
			err := c.Report(poet.RawEvent{
				Trace: r.trace, Seq: r.seq, Kind: r.kind, Type: "x", MsgID: r.msgID,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	events := float64(b.N) * float64(len(raws))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/events, "allocs/event")
}
