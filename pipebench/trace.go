package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Span names. Spans are recorded by the benchmark around its calls into
// each layer's public API; the program under test carries no tracing.
const (
	spanRun     = iota // the whole traced run
	spanPhase          // nominal phase or closed-loop burst
	spanReport         // Reporter.Report (through shard.Router when sharded)
	spanFlush          // Reporter.Flush
	spanNext           // EventSource.Next: waiting on the monitor stream
	spanFeed           // Next return to the next Next call: Monitor matching
	spanOnMatch        // the benchmark's match handler
	spanScrape         // one /metrics scrape of one poetd
	numSpanNames
)

var spanNames = [numSpanNames]string{"run", "phase", "report", "flush", "next", "feed", "onmatch", "scrape"}

type span struct {
	start, end int64 // ns since the run's epoch
	parent     int32 // index of the parent span, -1 for the root
	req        int32 // global event index the span serves, -1 if none
	name       uint8
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced mode.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(capHint int) *tracer {
	return &tracer{spans: make([]span, 0, capHint)}
}

// open appends a span with no end yet and returns its index.
func (t *tracer) open(name uint8, parent, req int32, start int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, parent: parent, req: req, name: name})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

func (t *tracer) close(i int32, end int64) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(name uint8, parent, req int32, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{start: start, end: end, parent: parent, req: req, name: name})
	t.mu.Unlock()
}

// spanStats aggregates one span name: its count and self times
// (duration minus the union of its children's intervals).
type spanStats struct {
	count int
	self  []int64
}

func (s spanStats) selfMean() float64 {
	if s.count == 0 {
		return 0
	}
	var sum int64
	for _, v := range s.self {
		sum += v
	}
	return float64(sum) / float64(s.count)
}

func (s spanStats) selfQuantile(q float64) float64 {
	if len(s.self) == 0 {
		return 0
	}
	v := append([]int64(nil), s.self...)
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[int(q*float64(len(v)-1))])
}

// aggregate derives per-name statistics, with self time computed from
// each span's children.
func (t *tracer) aggregate() [numSpanNames]spanStats {
	var out [numSpanNames]spanStats
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		self := s.end - s.start - covered(t.spans, children[int32(i)], s.start, s.end)
		st := &out[s.name]
		st.count++
		st.self = append(st.self, self)
	}
	return out
}

// covered returns how much of [lo, hi) the union of the child spans
// covers. Children of one parent may overlap when they were recorded on
// different goroutines.
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].start, spans[k].end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		sum += curB - curA
	}
	return sum
}

// write stores the spans as gzip-compressed tab-separated rows:
// id, name, parent, request, start ns, end ns.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tname\tparent\treq\tstart_ns\tend_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.name], s.parent, s.req, s.start, s.end)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
