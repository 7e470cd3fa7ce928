package main

import (
	"net/http"
	"sync"
	"time"
)

// endToEnd computes the metrics a user of the pipeline sees that repeat
// well enough between runs to gate on. CPU, memory and network are read
// from /proc outside the program.
func endToEnd(r *runner, m *measures, setups []float64) map[string]metric {
	n := float64(r.nominalN)
	var cpu time.Duration
	for i := range m.cpu1 {
		cpu += m.cpu1[i] - m.cpu0[i]
	}
	cpu += m.self1 - m.self0
	var hwm int64
	for _, h := range m.hwm {
		hwm += h
	}
	return map[string]metric{
		"setup_s":             {median(setups), "s"},
		"cpu_us_per_event":    {float64(cpu.Microseconds()) / n, "us"},
		"server_rss_mb":       {float64(hwm) / (1 << 20), "MiB"},
		"net_bytes_per_event": {float64(m.lo1-m.lo0) / n, "B"},
	}
}

// sample is one latency observation of the nominal phase, keyed by the
// due time that starts it.
type sample struct {
	due, lat int64
}

// eventSamples returns due-to-matched latencies of the nominal events.
func (r *runner) eventSamples() []sample {
	out := make([]sample, 0, r.nominalN)
	for i := 0; i < r.nominalN; i++ {
		if r.doneAt[i] > 0 {
			due := r.due(int32(i))
			out = append(out, sample{due, r.doneAt[i] - due})
		}
	}
	return out
}

// windowedMedian is the median, over the nominal phase's one-second
// windows of due time, of each window's median latency. A host that
// steals the CPU for a burst spoils a window or two, not the figure.
func (r *runner) windowedMedian(xs []sample) float64 {
	start := r.phaseStart.Load()
	byWindow := make(map[int64][]int64)
	for _, x := range xs {
		w := (x.due - start) / int64(time.Second)
		byWindow[w] = append(byWindow[w], x.lat)
	}
	var meds []float64
	for _, lats := range byWindow {
		meds = append(meds, quantile(lats, 0.5))
	}
	return median(meds)
}

func filter(xs []sample, keep func(sample) bool) []sample {
	var out []sample
	for _, x := range xs {
		if keep(x) {
			out = append(out, x)
		}
	}
	return out
}

func latencies(xs []sample) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = x.lat
	}
	return out
}

// perLayer computes the traced run's per-layer metrics. Counter deltas
// come from /metrics scrapes at phase boundaries (bounds[0] before the
// nominal phase, [1] after it drained, [2] after the burst); "primary"
// sums every ingesting daemon, so on the sharded tier it covers both
// shards.
func perLayer(r *runner, m *measures, cl *cluster) map[string]metric {
	spans := r.tr.aggregate()
	nomN, burstN := float64(r.nominalN), float64(len(r.events)-r.nominalN)
	out := make(map[string]metric)
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Per-daemon counter delta between two boundaries, summed over the
	// daemons sel selects.
	delta := func(from, to int, family string, sel func(*daemon) bool) float64 {
		var sum float64
		for i, d := range cl.daemons {
			if sel(d) {
				sum += m.bounds[to][i].get(family) - m.bounds[from][i].get(family)
			}
		}
		return sum
	}
	gauge := func(at int, family string, sel func(*daemon) bool) float64 {
		var sum float64
		for i, d := range cl.daemons {
			if sel(d) {
				sum += m.bounds[at][i].get(family)
			}
		}
		return sum
	}
	isPrimary := func(d *daemon) bool { return d.role != "standby" }
	isStandby := func(d *daemon) bool { return d.role == "standby" }
	cpuOf := func(from, to []time.Duration, sel func(*daemon) bool) float64 {
		var c time.Duration
		for i, d := range cl.daemons {
			if sel(d) {
				c += to[i] - from[i]
			}
		}
		return float64(c.Microseconds())
	}
	hwmOf := func(sel func(*daemon) bool) float64 {
		var h int64
		for i, d := range cl.daemons {
			if sel(d) {
				h += m.hwm[i]
			}
		}
		return float64(h) / (1 << 20)
	}

	// Reporter (driver side).
	var burstReport []int64
	for _, sp := range r.tr.spans {
		if sp.name == spanReport && int(sp.req) >= r.nominalN {
			burstReport = append(burstReport, sp.end-sp.start)
		}
	}
	set("reporter.report_ns", "ns", mean(burstReport))
	set("reporter.blocked_frac", "ratio", ratio(float64(r.blocked), float64(r.reports)))
	set("reporter.blocked_time_frac", "ratio", ratio(float64(r.blockedNs), float64(r.burstNs)))
	set("reporter.flush_ms", "ms", spans[spanFlush].selfMean()/1e6)
	set("gen.late_p99_ms", "ms", quantile(r.late, 0.99)/1e6)

	// Wire and collector (ingesting daemons).
	set("primary.cpu_us_per_event", "us", cpuOf(m.cpu0, m.cpu1, isPrimary)/nomN)
	set("primary.burst_cpu_us_per_event", "us", cpuOf(m.cpu1, m.cpu2, isPrimary)/burstN)
	set("primary.gc_per_kevent", "count", 1000*delta(0, 1, "go_gc_cycles_total", isPrimary)/nomN)
	set("primary.heap_mb", "MiB", gauge(2, "go_heap_alloc_bytes", isPrimary)/(1<<20))
	set("wire.monitor_bytes_per_event", "B", delta(0, 1, "poet_wire_monitor_bytes_total", isPrimary)/nomN)
	set("wire.vc_entries_per_event", "count", delta(0, 1, "poet_wire_vc_entries_total", isPrimary)/nomN)
	set("wire.acks_per_kevent", "count", 1000*delta(1, 2, "poet_wire_acks_sent_total", isPrimary)/burstN)
	set("collector.pending_max", "count", m.gauges["poet_pending_events"])
	set("delivery.queue_depth_max", "count", m.gauges["poet_delivery_queue_depth"])
	set("delivery.blocked_ms", "ms", delta(0, 2, "poet_delivery_blocked_ns_total", isPrimary)/1e6)

	// Write-ahead log (durable primary only; zero elsewhere).
	var walAppend, walFsync float64
	for i, d := range cl.daemons {
		if d.role == "primary" {
			walAppend = histQuantile(m.bounds[0][i], m.bounds[1][i], "wal_append_ns", 0.50)
			walFsync = histQuantile(m.bounds[0][i], m.bounds[1][i], "wal_fsync_ns", 0.99) / 1e6
		}
	}
	set("wal.append_bytes_per_event", "B", delta(0, 1, "wal_append_bytes_total", isPrimary)/nomN)
	set("wal.append_ns_p50", "ns", walAppend)
	set("wal.fsync_ms_p99", "ms", walFsync)
	set("wal.fsyncs", "count", delta(0, 1, "wal_fsyncs_total", isPrimary))
	set("primary.snapshots", "count", delta(0, 1, "poet_snapshots_total", isPrimary))

	// Replication (HA only).
	set("standby.cpu_us_per_event", "us", cpuOf(m.cpu0, m.cpu1, isStandby)/nomN)
	set("standby.rss_mb", "MiB", hwmOf(isStandby))
	set("replica.lag_events_max", "count", m.gauges["poet_wire_replication_lag_events"])

	// Shard exchange (sharded only).
	set("shard.remote_frac", "ratio", m.remoteFraction)
	set("shard.exports_per_event", "count", delta(0, 1, "poet_shard_exports_total", isPrimary)/nomN)
	set("shard.vc_entries_per_record", "count", ratio(
		delta(0, 1, "poet_wire_shard_vc_entries_total", isPrimary),
		delta(0, 1, "poet_wire_shard_records_total", isPrimary)))
	set("shard.held_max", "count", m.gauges["poet_shard_held_events"])
	set("shard.oldest_held_ms_max", "ms", m.gauges["poet_shard_oldest_held_ms"])
	set("shard.peer_lag_records_max", "count", m.gauges["poet_shard_peer_lag_records"])
	set("merge.backlog_max", "count", float64(r.mergeMax))

	// Monitor stream and matcher.
	set("monitor.next_wait_frac", "ratio", ratio(float64(r.nextWait), float64(r.nominalNs)))
	feed := spans[spanFeed]
	set("core.feed_ns_p50", "ns", feed.selfQuantile(0.50))
	set("core.feed_ns_mean", "ns", feed.selfMean())
	st := m.stats
	total := float64(len(r.events))
	set("core.triggers_per_event", "count", ratio(float64(st.Triggers), total))
	set("core.candidates_per_trigger", "count", ratio(float64(st.CandidatesTried), float64(st.Triggers)))
	set("core.backtracks_per_trigger", "count", ratio(float64(st.Backtracks), float64(st.Triggers)))
	set("core.matches_per_event", "count", ratio(float64(st.Reported), total))
	set("onmatch.ns", "ns", spans[spanOnMatch].selfMean())

	// Driver process.
	set("driver.cpu_us_per_event", "us", float64((m.self1-m.self0).Microseconds())/nomN)
	set("driver.allocs_per_event", "count", float64(m.mallocs1-m.mallocs0)/nomN)

	// Latency, which repeats too poorly between runs to gate on (see
	// NOTES.md), from the nominal phase's untraced slices.
	untraced := func(x sample) bool { return !r.tracedDue(x) }
	evs := r.eventSamples()
	set("event_p50_ms", "ms", r.windowedMedian(filter(evs, untraced))/1e6)
	set("event_p99_ms", "ms", quantile(latencies(filter(evs, untraced)), 0.99)/1e6)
	set("detect_p50_ms", "ms", r.windowedMedian(filter(r.detect, untraced))/1e6)
	set("detect_p99_ms", "ms", quantile(latencies(filter(r.detect, untraced)), 0.99)/1e6)

	// Closed-loop throughput, which repeats too poorly between runs on
	// the CPU-bound sharded tier to gate on (see NOTES.md). The burst
	// is traced throughout.
	set("peak_evps", "events/s", r.peak)

	// Tracing overhead and the single-process baseline.
	set("trace.overhead_frac", "ratio", ratio(
		quantile(latencies(filter(evs, r.tracedDue)), 0.5),
		quantile(latencies(filter(evs, untraced)), 0.5))-1)
	set("oracle.us_per_event", "us", float64(m.oracleDur.Nanoseconds())/1e3/total)
	set("host.steal_frac", "ratio", m.stealFrac)
	set("scrape.ms", "ms", spans[spanScrape].selfMean()/1e6)

	// Base counts behind the ratios above.
	set("base.nominal_events", "count", nomN)
	set("base.burst_events", "count", burstN)
	set("base.matches", "count", float64(st.Reported))
	set("base.detect_samples", "count", float64(len(r.detect)))
	set("base.spans", "count", float64(len(r.tr.spans)))
	set("base.scrapes", "count", float64(m.scrapes))
	return out
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// scrape fetches and parses one daemon's /metrics, recording a span.
func scrape(d *daemon, r *runner) promText {
	t := r.now()
	code, body, err := httpGet("http://" + d.metrics + "/metrics")
	r.tr.add(spanScrape, 0, -1, t, r.now())
	if err != nil || code != http.StatusOK {
		return promText{}
	}
	return parseProm(body)
}

func scrapeAll(cl *cluster, r *runner) []promText {
	var out []promText
	for _, d := range cl.daemons {
		out = append(out, scrape(d, r))
	}
	return out
}

// sampledGauges are the queue and lag gauges whose peaks the traced run
// reports. A sample sums a family over the daemons that export it,
// except ages, where the oldest counts (true).
var sampledGauges = map[string]bool{
	"poet_pending_events":              false,
	"poet_delivery_queue_depth":        false,
	"poet_wire_replication_lag_events": false,
	"poet_shard_held_events":           false,
	"poet_shard_oldest_held_ms":        true,
	"poet_shard_peer_lag_records":      false,
}

// gaugeSampler scrapes every daemon at a fixed low cadence and keeps
// the peak of each sampled gauge.
type gaugeSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peaks  map[string]float64
	n      int
}

func startSampler(cl *cluster, r *runner) *gaugeSampler {
	s := &gaugeSampler{stopCh: make(chan struct{}), peaks: make(map[string]float64)}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
			}
			b := scrapeAll(cl, r)
			s.n++
			for g, oldest := range sampledGauges {
				var sum float64
				for _, p := range b {
					if v := p.get(g); oldest {
						sum = max(sum, v)
					} else {
						sum += v
					}
				}
				if sum > s.peaks[g] {
					s.peaks[g] = sum
				}
			}
		}
	}()
	return s
}

func (s *gaugeSampler) stop() (map[string]float64, int) {
	close(s.stopCh)
	s.wg.Wait()
	return s.peaks, s.n
}
