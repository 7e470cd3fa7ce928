package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// topology is one poetd deployment the benchmark drives.
type topology int

const (
	// plainTopo is one in-memory poetd with default flags.
	plainTopo topology = iota
	// haTopo is a durable primary plus a -follow standby, both with
	// their own data directory and -fsync interval.
	haTopo
	// shardTopo is a 2-shard in-memory tier.
	shardTopo
)

// daemon is one poetd child process.
type daemon struct {
	role    string // "primary", "standby", "shard0", "shard1"
	metrics string
	cmd     *exec.Cmd
	log     *tailBuffer
	exited  chan struct{}
	waitErr error
}

// listenLine is what poetd logs once its wire listener is bound; its
// metrics listener is bound before that.
const listenLine = "listening on "

// probeEvery is the readiness-probe cadence once a daemon has logged
// listenLine: fine enough not to quantise a set-up of a few
// milliseconds, coarse enough that the probes do not compete with the
// daemons for the CPUs.
const probeEvery = time.Millisecond

// cluster is a running deployment: its daemons and the addresses
// clients dial.
type cluster struct {
	daemons []*daemon
	// pools holds one client endpoint spec per shard: the whole
	// deployment for plain and HA (HA lists primary,standby), one entry
	// per shard for the sharded tier.
	pools []string
}

// primaries are the daemons that ingest reports: every shard, or the
// single (primary) collector.
func (c *cluster) primaries() []*daemon {
	var out []*daemon
	for _, d := range c.daemons {
		if d.role != "standby" {
			out = append(out, d)
		}
	}
	return out
}

func (c *cluster) standby() *daemon {
	for _, d := range c.daemons {
		if d.role == "standby" {
			return d
		}
	}
	return nil
}

// freePorts reserves n distinct loopback ports by listening on each
// before releasing them all.
func freePorts(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// startCluster launches the daemons of topo and waits until they serve
// (see ready). dataRoot holds the HA data directories. A standby is
// launched once its primary is ready, so its first dial of the primary
// does not race the primary's listener. Shard 1 is launched once shard
// 0 listens, so exactly one peer follower, shard 0's, starts before
// its peer listens and waits out one reconnect backoff; launched
// together, either none or one would, and the set-up time would be
// bimodal.
func startCluster(bin string, topo topology, dataRoot string, deadline time.Time) (*cluster, error) {
	ports, err := freePorts(4)
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	launch := func(role, addr, metrics string, extra ...string) error {
		args := append([]string{"-listen", addr, "-metrics-addr", metrics, "-quiet"}, extra...)
		d := &daemon{role: role, metrics: metrics, log: newTailBuffer(16<<10, listenLine), exited: make(chan struct{})}
		d.cmd = exec.Command(bin, args...)
		d.cmd.Stdout = d.log
		d.cmd.Stderr = d.log
		if err := d.cmd.Start(); err != nil {
			return fmt.Errorf("start %s: %w", role, err)
		}
		live.add(d)
		go func() {
			d.waitErr = d.cmd.Wait()
			close(d.exited)
		}()
		c.daemons = append(c.daemons, d)
		return nil
	}
	switch topo {
	case plainTopo:
		err = launch("primary", ports[0], ports[1])
		c.pools = []string{ports[0]}
	case haTopo:
		pdir, sdir := filepath.Join(dataRoot, "primary"), filepath.Join(dataRoot, "standby")
		for _, d := range []string{pdir, sdir} {
			if err = os.MkdirAll(d, 0o755); err != nil {
				return nil, err
			}
		}
		err = launch("primary", ports[0], ports[1], "-data-dir", pdir, "-fsync", "interval")
		if err == nil {
			err = c.ready(deadline)
		}
		if err == nil {
			err = launch("standby", ports[2], ports[3], "-data-dir", sdir, "-fsync", "interval", "-follow", ports[0])
		}
		c.pools = []string{ports[0] + "," + ports[2]}
	case shardTopo:
		peers := ports[0] + ";" + ports[2]
		err = launch("shard0", ports[0], ports[1], "-shard-id", "0", "-peers", peers)
		if err == nil {
			err = c.listening(deadline)
		}
		if err == nil {
			err = launch("shard1", ports[2], ports[3], "-shard-id", "1", "-peers", peers)
		}
		c.pools = []string{ports[0], ports[2]}
	}
	if err == nil {
		err = c.ready(deadline)
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

var httpClient = &http.Client{Timeout: 2 * time.Second}

func httpGet(url string) (int, []byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// ready waits until every daemon serves: /readyz 200 on each ingesting
// daemon, /healthz 200 on the standby (a standby's /readyz stays 503 by
// design until promotion), the standby's replication session open on
// the primary, and on a sharded tier each shard's peer-exchange session
// open. Nothing is probed before every daemon has logged listenLine;
// after that probes run every probeEvery.
func (c *cluster) ready(deadline time.Time) error {
	if err := c.listening(deadline); err != nil {
		return err
	}
	type probe struct {
		what string
		ok   func() bool
	}
	status := func(d *daemon, path string) func() bool {
		return func() bool {
			code, _, err := httpGet("http://" + d.metrics + path)
			return err == nil && code == http.StatusOK
		}
	}
	metricAtLeast := func(d *daemon, name string, min float64) func() bool {
		return func() bool {
			code, body, err := httpGet("http://" + d.metrics + "/metrics")
			if err != nil || code != http.StatusOK {
				return false
			}
			return parseProm(body).get(name) >= min
		}
	}
	var probes []probe
	for _, d := range c.primaries() {
		probes = append(probes, probe{d.role + " /readyz", status(d, "/readyz")})
	}
	if sb := c.standby(); sb != nil {
		probes = append(probes,
			probe{"standby /healthz", status(sb, "/healthz")},
			probe{"standby replication session", metricAtLeast(c.primaries()[0], "poet_wire_replica_sessions_total", 1)})
	}
	if len(c.primaries()) > 1 {
		for _, d := range c.primaries() {
			probes = append(probes, probe{d.role + " peer exchange", metricAtLeast(d, "poet_wire_shard_sessions_total", 1)})
		}
	}
	for _, p := range probes {
		for !p.ok() {
			if err := c.checkAlive(); err != nil {
				return err
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("timed out waiting for %s", p.what)
			}
			time.Sleep(probeEvery)
		}
	}
	return nil
}

// listening waits until every daemon has logged listenLine.
func (c *cluster) listening(deadline time.Time) error {
	timeout := time.NewTimer(time.Until(deadline))
	defer timeout.Stop()
	for _, d := range c.daemons {
		select {
		case <-d.log.seen:
		case <-d.exited:
			return c.checkAlive()
		case <-timeout.C:
			return fmt.Errorf("timed out waiting for poetd %s to listen", d.role)
		}
	}
	return nil
}

// checkAlive reports the first daemon that has exited.
func (c *cluster) checkAlive() error {
	for _, d := range c.daemons {
		select {
		case <-d.exited:
			return fmt.Errorf("poetd %s exited: %v\n%s", d.role, d.waitErr, d.log.String())
		default:
		}
	}
	return nil
}

// stop interrupts every daemon (standby first, so it does not promote
// itself over a stopping primary) and waits for each to exit, killing
// any that outlives a short grace period.
func (c *cluster) stop() {
	for i := len(c.daemons) - 1; i >= 0; i-- {
		d := c.daemons[i]
		_ = d.cmd.Process.Signal(syscall.SIGINT)
		select {
		case <-d.exited:
		case <-time.After(5 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
		}
		live.remove(d)
	}
}

// tailBuffer keeps the last max bytes written to it, for diagnostics,
// and closes seen once a write contains mark. The daemon's log package
// writes each line with one Write call.
type tailBuffer struct {
	mu   sync.Mutex
	max  int
	buf  []byte
	mark []byte
	seen chan struct{}
}

func newTailBuffer(max int, mark string) *tailBuffer {
	return &tailBuffer{max: max, mark: []byte(mark), seen: make(chan struct{})}
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mark != nil && bytes.Contains(p, b.mark) {
		close(b.seen)
		b.mark = nil
	}
	b.buf = append(b.buf, p...)
	if over := len(b.buf) - b.max; over > 0 {
		b.buf = append(b.buf[:0], b.buf[over:]...)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// promText is one /metrics scrape: series name (with labels) to value,
// plus histogram buckets by family.
type promText struct {
	values  map[string]float64
	buckets map[string][]bucket
}

type bucket struct {
	le  float64
	cum float64
}

func parseProm(body []byte) promText {
	p := promText{values: make(map[string]float64), buckets: make(map[string][]bucket)}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		if i := strings.Index(series, `_bucket{le="`); i >= 0 && !strings.Contains(series[i+12:], ",") {
			leStr := strings.TrimSuffix(series[i+12:], `"}`)
			le, err := strconv.ParseFloat(leStr, 64)
			if leStr == "+Inf" {
				le, err = 1e300, nil
			}
			if err == nil {
				fam := series[:i]
				p.buckets[fam] = append(p.buckets[fam], bucket{le: le, cum: v})
			}
			continue
		}
		p.values[series] = v
	}
	return p
}

// get sums every series of a family (all label sets).
func (p promText) get(family string) float64 {
	var sum float64
	for k, v := range p.values {
		if k == family || (strings.HasPrefix(k, family+"{")) {
			sum += v
		}
	}
	return sum
}

// histQuantile estimates quantile q of the observations a histogram
// family gained between two scrapes, as the upper bound of the bucket
// holding the q-th observation. A scrape renders only buckets whose
// cumulative count changes, so a bound missing from one scrape carries
// the cumulative count of the nearest rendered bound below it.
func histQuantile(before, after promText, family string, q float64) float64 {
	cumAt := func(bs []bucket, le float64) float64 {
		var c float64
		for _, b := range bs {
			if b.le <= le {
				c = b.cum
			}
		}
		return c
	}
	a, b := after.buckets[family], before.buckets[family]
	if len(a) == 0 {
		return 0
	}
	total := cumAt(a, 1e300) - cumAt(b, 1e300)
	if total <= 0 {
		return 0
	}
	for _, bk := range a {
		if cumAt(a, bk.le)-cumAt(b, bk.le) >= q*total {
			return bk.le
		}
	}
	return a[len(a)-1].le
}

// procCPU reads a process's cumulative user+system CPU time.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(utime+stime) * time.Second / ticksPerSecond, nil
}

// procHWM reads a process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// loopbackBytes reads the bytes received on the loopback interface.
// Every byte sent over loopback is received once, so the received count
// alone is the traffic volume.
func loopbackBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		name, rest, ok := strings.Cut(strings.TrimSpace(line), ":")
		if ok && name == "lo" {
			f := strings.Fields(rest)
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("no lo row in /proc/net/dev")
}

// cpuTicks are the host's cumulative CPU ticks from /proc/stat: all of
// them, and those stolen by the hypervisor from this virtual machine.
type cpuTicks struct {
	total, steal int64
}

func hostTicks() (cpuTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat: %q", line)
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTicks{}, err
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}
