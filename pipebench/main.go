// Command pipebench is the repository's end-to-end benchmark. It drives
// seeded case-study streams through real poetd processes — plain,
// durable with a warm standby, and a 2-shard tier — checks the detected
// matches against an in-process oracle, and prints one JSON result
// line. With -trace 0 the result holds the end-to-end metrics; with
// -trace 1 it holds the per-layer metrics, timed from outside around
// calls into each layer's public API and scraped from each poetd's
// /metrics and /proc entries. See NOTES.md.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	pipebench -poetd <poetd binary> -work <scratch dir> \
//	    -workload races-plain -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ocep"
	"ocep/internal/event"
	"ocep/internal/shard"
)

const (
	// setupTrials deployments are set up per run; setup_s is their
	// median and the last one carries the measured phases.
	setupTrials = 61
	// runBudget bounds a whole run; a run that has not finished by then
	// is abandoned with its daemons killed.
	runBudget = 160 * time.Second
	// sampleEvery is the gauge-sampling cadence of a traced run.
	sampleEvery = 100 * time.Millisecond
)

func main() {
	os.Exit(run())
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: races-plain, deadlock-ha or atomicity-sharded")
		seed    = flag.Int64("seed", 1, "input seed: one seed yields one input list")
		seconds = flag.Int("seconds", 10, "length of the open-loop (nominal-rate) phase")
		trace   = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		poetd   = flag.String("poetd", "", "poetd binary to run")
		work    = flag.String("work", "", "scratch directory for data directories and span files")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *poetd == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: pipebench -poetd BIN -work DIR -workload NAME [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	// Children die with the benchmark, however it ends.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-stop:
			live.killAll()
			os.Exit(1)
		case <-time.After(runBudget + 10*time.Second):
			fmt.Fprintln(os.Stderr, "pipebench: run exceeded its time budget")
			live.killAll()
			os.Exit(1)
		}
	}()
	res, err := benchmark(w, *seed, *seconds, *trace == 1, *poetd, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		live.killAll()
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// liveSet tracks started daemons so an abandoned run can kill them.
type liveSet struct {
	mu      sync.Mutex
	daemons map[*daemon]bool
}

var live = liveSet{daemons: make(map[*daemon]bool)}

func (l *liveSet) add(d *daemon) {
	l.mu.Lock()
	l.daemons[d] = true
	l.mu.Unlock()
}

func (l *liveSet) remove(d *daemon) {
	l.mu.Lock()
	delete(l.daemons, d)
	l.mu.Unlock()
}

func (l *liveSet) killAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for d := range l.daemons {
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// measures are the outside-in readings taken around the nominal phase.
type measures struct {
	cpu0, cpu1     []time.Duration // per daemon, around the nominal phase
	cpu2           []time.Duration // per daemon, after the burst
	self0, self1   time.Duration
	mallocs0       uint64
	mallocs1       uint64
	lo0, lo1       int64
	hwm            []int64
	bounds         [][]promText // traced, per daemon: before nominal, after nominal, after burst
	gauges         map[string]float64
	scrapes        int
	oracleDur      time.Duration
	stats          ocep.MatcherStats
	remoteFraction float64
	steal0, steal1 cpuTicks
	stealFrac      float64
}

func benchmark(w workloadSpec, seed int64, seconds int, traced bool, bin, work string) (*result, error) {
	deadline := time.Now().Add(runBudget)
	nominalN := nominalRate * seconds
	events := w.gen(rand.New(rand.NewSource(seed)), nominalN+burstEvents)
	fmt.Printf("pipebench: workload=%s seed=%d events=%d nominal=%d rate=%d/s digest=%s\n",
		w.name, seed, len(events), nominalN, nominalRate, digest(events))

	table := newTraceTable(events)
	want, oracleDur, err := runOracle(w.pattern, events, table)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	r := &runner{
		events: events, nominalN: nominalN,
		period: 1e9 / nominalRate,
		doneAt: make([]int64, nominalN),
		retAt:  make([]int64, len(events)),
		order:  make([]int32, len(events)),
		late:   make([]int64, nominalN),
	}
	r.gidx = make([][]int32, len(table.names))
	for i, e := range events {
		pos := table.index[e.Trace]
		r.gidx[pos] = append(r.gidx[pos], int32(i))
	}
	r.epoch = time.Now()
	if traced {
		r.tr = newTracer(1 << 20)
		r.tr.open(spanRun, -1, -1, 0)
	}
	r.phaseSpan.Store(-1)

	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set up the deployment several times; only the last is kept.
	var (
		cl     *cluster
		cn     *clients
		setups []float64
	)
	setupStart := time.Now()
	for k := 0; k < setupTrials; k++ {
		start := time.Now()
		cl, err = startCluster(bin, w.topo, filepath.Join(runDir, fmt.Sprintf("data-%d", k)), deadline)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if cn, err = connect(cl, r); err != nil {
			cl.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupTrials-1 {
			cn.close()
			cl.stop()
		}
	}
	defer cl.stop()
	defer cn.close()
	sort.Float64s(setups)
	fmt.Fprintf(os.Stderr, "pipebench: %d set-ups in %.2fs: min %.1f ms, median %.1f ms, max %.1f ms\n",
		setupTrials, time.Since(setupStart).Seconds(), 1e3*setups[0], 1e3*median(setups), 1e3*setups[len(setups)-1])

	src := &source{inner: cn.stream, r: r, prev: -1, feedSpan: -1}
	src.names = table.bind(cn.stream.TraceName)
	mon, err := ocep.NewMonitor(w.pattern, ocep.WithMatchHandler(src.onMatch))
	if err != nil {
		return nil, err
	}
	runErr := make(chan error, 1)
	go func() {
		err := mon.Run(src)
		r.monitorDone.Store(true)
		runErr <- err
	}()
	// matched fails the run unless the monitor finished matching the
	// first n events and no Report or Flush failed: a run that loses
	// work prints no figures.
	matched := func(phase string, n int) error {
		if r.reportErr != nil {
			return fmt.Errorf("%s: reporting: %w", phase, r.reportErr)
		}
		if got := r.completed.Load(); got < int64(n) {
			if r.monitorDone.Load() {
				return fmt.Errorf("%s: monitor stopped after %d of %d events: %v", phase, got, n, <-runErr)
			}
			return fmt.Errorf("%s: %d of %d events matched by the deadline", phase, got, n)
		}
		return nil
	}

	m := &measures{oracleDur: oracleDur}
	var sampler *gaugeSampler
	if traced {
		m.bounds = append(m.bounds, scrapeAll(cl, r))
		sampler = startSampler(cl, r)
	}
	if err := m.readProc(cl, true); err != nil {
		return nil, err
	}
	r.nominal(cn, deadline)
	if err := m.readProc(cl, false); err != nil {
		return nil, err
	}
	if traced {
		m.bounds = append(m.bounds, scrapeAll(cl, r))
	}
	fmt.Fprintf(os.Stderr, "pipebench: nominal phase: %d/%d events matched in %.2fs\n",
		r.completed.Load(), nominalN, float64(r.nominalNs)/1e9)
	if err := matched("nominal phase", nominalN); err != nil {
		return nil, err
	}
	if err := r.checkBacklog(); err != nil {
		return nil, err
	}
	r.burst(cn, deadline)
	fmt.Fprintf(os.Stderr, "pipebench: burst %.0f ev/s; %d/%d events matched\n", r.peak, r.completed.Load(), len(events))
	if err := matched("burst", len(events)); err != nil {
		return nil, err
	}
	r.phase.Store(phaseDone)
	if traced {
		m.gauges, m.scrapes = sampler.stop()
		m.bounds = append(m.bounds, scrapeAll(cl, r))
	}
	for _, d := range cl.daemons {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		m.cpu2 = append(m.cpu2, c)
		hwm, err := procHWM(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		m.hwm = append(m.hwm, hwm)
	}
	m.stats = mon.Stats()
	if cn.router != nil {
		m.remoteFraction = remoteFraction(events, cn.router)
	}
	got := outcome{Matches: r.set, Coverage: coverageSignatures(mon.Coverage(), src.names), Stats: m.stats}

	cn.close()
	select {
	case <-runErr:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("monitor did not stop after its stream closed")
	}
	cl.stop()

	if err := checkOutcome(w, events, r.order, table, got, want); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: len(events)}
	if traced {
		r.tr.close(0, r.now())
		res.Metrics = perLayer(r, m, cl)
		if err := r.tr.write(filepath.Join(work, w.name+".spans.tsv.gz")); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = endToEnd(r, m, setups)
	}
	return res, nil
}

// checkOutcome compares a run with the oracle over the generated order
// and, when the monitor received another linearization, with an oracle
// over exactly that order.
func checkOutcome(w workloadSpec, events []ocep.RawEvent, order []int32, table *traceTable, got, want outcome) error {
	same := true
	for i, gi := range order {
		if int(gi) != i {
			same = false
			break
		}
	}
	if err := got.diff(want, same); err != nil {
		return fmt.Errorf("oracle mismatch: %w", err)
	}
	if same {
		return nil
	}
	delivered := make([]ocep.RawEvent, len(order))
	for i, gi := range order {
		delivered[i] = events[gi]
	}
	wantDelivered, _, err := runOracle(w.pattern, delivered, table)
	if err != nil {
		return err
	}
	if err := got.diff(wantDelivered, true); err != nil {
		return fmt.Errorf("oracle mismatch over the delivered order: %w", err)
	}
	return nil
}

// readProc reads CPU, allocation, loopback and host steal counters at
// the start (begin) or end of the nominal phase.
func (m *measures) readProc(cl *cluster, begin bool) error {
	cpus := make([]time.Duration, len(cl.daemons))
	for i, d := range cl.daemons {
		c, err := procCPU(d.cmd.Process.Pid)
		if err != nil {
			return err
		}
		cpus[i] = c
	}
	self, err := procCPU(os.Getpid())
	if err != nil {
		return err
	}
	lo, err := loopbackBytes()
	if err != nil {
		return err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ticks, err := hostTicks()
	if err != nil {
		return err
	}
	if begin {
		m.cpu0, m.self0, m.lo0, m.mallocs0, m.steal0 = cpus, self, lo, ms.Mallocs, ticks
	} else {
		m.cpu1, m.self1, m.lo1, m.mallocs1, m.steal1 = cpus, self, lo, ms.Mallocs, ticks
		if all := m.steal1.total - m.steal0.total; all > 0 {
			m.stealFrac = float64(m.steal1.steal-m.steal0.steal) / float64(all)
		}
	}
	return nil
}

// checkBacklog rejects a run whose nominal rate was not sustainable:
// the reported-minus-consumed backlog over the last quarter of the
// phase must not sit well above its level in the first quarter.
func (r *runner) checkBacklog() error {
	n := len(r.backlog)
	if n < 8 {
		return nil
	}
	first, last := mean(r.backlog[:n/4]), mean(r.backlog[n-n/4:])
	if limit := 0.25 * nominalRate; last > limit && last > 4*first {
		return fmt.Errorf("backlog grew during the nominal phase (first-quarter mean %.0f, last-quarter mean %.0f events): %d ev/s is not sustainable here", first, last, nominalRate)
	}
	return nil
}

// remoteFraction is the share of events that are receives whose send
// lives on a trace homed on another shard: the cross-shard traffic the
// tier's export logs carry.
func remoteFraction(events []ocep.RawEvent, router *shard.Router[ocep.RawEvent]) float64 {
	home := func(trace string) string {
		k, _ := router.Partitioner().Assigned(trace)
		return k
	}
	sender := make(map[uint64]string)
	remote := 0
	for _, e := range events {
		switch e.Kind {
		case event.KindSend, event.KindSyncRelease:
			sender[e.MsgID] = e.Trace
		case event.KindReceive, event.KindSyncAcquire:
			if home(sender[e.MsgID]) != home(e.Trace) {
				remote++
			}
		}
	}
	return float64(remote) / float64(len(events))
}

func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]int64(nil), xs...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[int(q*float64(len(v)-1))])
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}
