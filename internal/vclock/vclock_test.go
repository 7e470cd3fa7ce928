package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reps enumerates the clock representations every property in this file
// must hold for. "mixed" alternates representations between traces so
// dense and sparse stamps meet inside one comparison.
var reps = []struct {
	name     string
	newClock func(i int) Clock
}{
	{"dense", func(int) Clock { return VC(nil) }},
	{"sparse", func(int) Clock { return NewSparse() }},
	{"mixed", func(i int) Clock {
		if i%2 == 0 {
			return VC(nil)
		}
		return NewSparse()
	}},
}

func TestTickMergeBasics(t *testing.T) {
	var v Clock = New(3)
	v = v.Tick(0)
	if got, want := v.String(), "[1 0 0]"; got != want {
		t.Fatalf("after tick: got %s want %s", got, want)
	}
	w := New(3).Tick(1).Tick(1)
	v = v.Merge(w)
	if got, want := v.String(), "[1 2 0]"; got != want {
		t.Fatalf("after merge: got %s want %s", got, want)
	}
}

func TestTickGrows(t *testing.T) {
	v := (VC)(nil).Tick(4).(VC)
	if len(v) != 5 || v[4] != 1 {
		t.Fatalf("tick did not grow: %v", v)
	}
}

func TestCloneIndependent(t *testing.T) {
	for _, rep := range reps[:2] {
		t.Run(rep.name, func(t *testing.T) {
			v := rep.newClock(0).Tick(0)
			c := v.Clone()
			c = c.Tick(1)
			if v.Get(1) != 0 {
				t.Fatalf("clone aliased original: %v", v)
			}
			_ = c
		})
	}
	if (VC)(nil).Clone().(VC) != nil {
		t.Fatalf("nil dense clone should stay nil")
	}
	if got := (*Sparse)(nil).Clone().(*Sparse); got == nil || got.Weight() != 0 {
		t.Fatalf("nil sparse clone should be an empty clock, got %v", got)
	}
}

// TestNilZeroValues pins the zero-value contract both representations
// share: a nil clock reads as all-zero, compares equal to every other
// empty clock, and is LessEqual everything.
func TestNilZeroValues(t *testing.T) {
	zeros := []Clock{VC(nil), VC{}, New(3), (*Sparse)(nil), NewSparse()}
	for i, a := range zeros {
		if a.Get(0) != 0 || a.Get(42) != 0 || a.Get(-1) != 0 {
			t.Fatalf("zero clock %d must read zero everywhere", i)
		}
		for j, b := range zeros {
			if !a.Equal(b) {
				t.Fatalf("zero clocks %d and %d must be equal (%s vs %s)", i, j, a, b)
			}
			if !a.LessEqual(b) {
				t.Fatalf("zero clock %d must be <= zero clock %d", i, j)
			}
		}
		one := New(2).Tick(1)
		if !a.LessEqual(one) || one.LessEqual(a) {
			t.Fatalf("zero clock %d must be strictly below a ticked clock", i)
		}
		// A zero stamp has entry 0 everywhere, so under the
		// va[ta] == index convention it trivially precedes any real
		// event and nothing precedes it.
		real := New(2).Tick(1)
		if Before(a, 0, a, 0) || !Before(a, 0, real, 1) || Before(real, 1, a, 0) {
			t.Fatalf("zero clock %d: Before on nil broke", i)
		}
	}
}

func TestGetOutOfRange(t *testing.T) {
	v := New(2)
	if v.Get(-1) != 0 || v.Get(7) != 0 {
		t.Fatalf("out-of-range Get must be zero")
	}
	s := NewSparse().Tick(3)
	if s.Get(-1) != 0 || s.Get(7) != 0 || s.Get(2) != 0 {
		t.Fatalf("sparse out-of-range Get must be zero")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	a := VC{1, 0}
	b := VC{1, 0, 0, 0}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("clocks padded with zeros must compare equal")
	}
	c := VC{1, 0, 1}
	if a.Equal(c) {
		t.Fatalf("distinct clocks compared equal")
	}
	// Cross-representation: sparse never stores the zero padding, so it
	// must equal both dense spellings.
	s := SparseOf(a)
	if !s.Equal(a) || !s.Equal(b) || !a.Equal(s) || !b.Equal(s) {
		t.Fatalf("sparse must equal zero-padded dense forms")
	}
	if s.Equal(c) || c.Equal(s) {
		t.Fatalf("sparse compared equal to a distinct clock")
	}
}

func TestLessEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b VC
		want bool
	}{
		{"equal", VC{1, 2}, VC{1, 2}, true},
		{"less", VC{1, 1}, VC{1, 2}, true},
		{"greater", VC{2, 2}, VC{1, 2}, false},
		{"incomparable", VC{2, 0}, VC{0, 2}, false},
		{"shorter", VC{1}, VC{1, 5}, true},
		{"longer zero tail", VC{1, 0}, VC{1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.LessEqual(tc.b); got != tc.want {
				t.Fatalf("LessEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			// The answer must not depend on representation, on either side.
			sa, sb := SparseOf(tc.a), SparseOf(tc.b)
			if got := sa.LessEqual(sb); got != tc.want {
				t.Fatalf("sparse LessEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			if got := sa.LessEqual(tc.b); got != tc.want {
				t.Fatalf("sparse-vs-dense LessEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
			if got := tc.a.LessEqual(sb); got != tc.want {
				t.Fatalf("dense-vs-sparse LessEqual(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

// TestMergeAliasing pins the documented Merge contract (the append
// semantics both representations must share): the returned clock is the
// merged value, the argument is never mutated, and mutating the result
// afterwards never changes the argument — across every length
// combination that used to pick different in-place/copy paths.
func TestMergeAliasing(t *testing.T) {
	lengths := [][2]int{{0, 0}, {0, 3}, {3, 0}, {2, 5}, {5, 2}, {4, 4}}
	for _, rep := range reps[:2] {
		t.Run(rep.name, func(t *testing.T) {
			for _, ln := range lengths {
				recv := rep.newClock(0)
				for i := 0; i < ln[0]; i++ {
					recv = recv.Tick(i)
				}
				arg := rep.newClock(1)
				for i := 0; i < ln[1]; i++ {
					arg = arg.Tick(i).Tick(i)
				}
				argSnap := arg.Clone()
				got := recv.Merge(arg)
				if !arg.Equal(argSnap) {
					t.Fatalf("len %v: Merge mutated its argument: %s != %s", ln, arg, argSnap)
				}
				// Mutate the result heavily; the argument must not move.
				for i := 0; i < 8; i++ {
					got = got.Tick(i)
				}
				if !arg.Equal(argSnap) {
					t.Fatalf("len %v: result aliases the argument: %s != %s", ln, arg, argSnap)
				}
				// And the merged value must dominate both inputs.
				if !argSnap.LessEqual(got) {
					t.Fatalf("len %v: merge lost argument entries", ln)
				}
			}
		})
	}
}

// TestMergeSelf checks merging a clock with itself (and with an aliasing
// prefix, for the dense form) is a no-op on the values.
func TestMergeSelf(t *testing.T) {
	v := New(4).Tick(0).Tick(2).Tick(2)
	want := v.Clone()
	if got := v.Merge(v); !got.Equal(want) {
		t.Fatalf("self-merge changed values: %s != %s", got, want)
	}
	d := v.Clone().(VC)
	if got := d.Merge(d[:2]); !got.Equal(want) {
		t.Fatalf("prefix self-merge changed values: %s != %s", got, want)
	}
	s := SparseOf(want)
	if got := s.Merge(s); !got.Equal(want) {
		t.Fatalf("sparse self-merge changed values: %s != %s", got, want)
	}
}

// stampedEvent is an event produced by the reference simulation in
// newHistory, carrying its ground-truth causal ancestry for oracle checks.
type stampedEvent struct {
	trace, index int // 1-based index within trace
	vc           Clock
	ancestors    map[[2]int]bool // set of (trace,index) that happen before
}

// newHistory simulates nTraces communicating processes for steps steps and
// returns events with both vector clocks and ground-truth ancestor sets.
// Each trace's clock representation is chosen by newClock, so the same
// simulation exercises dense, sparse, and mixed configurations.
func newHistory(rng *rand.Rand, nTraces, steps int, newClock func(i int) Clock) []stampedEvent {
	clocks := make([]Clock, nTraces)
	anc := make([]map[[2]int]bool, nTraces) // ancestors known to each trace
	counts := make([]int, nTraces)
	for i := range clocks {
		clocks[i] = newClock(i)
		anc[i] = map[[2]int]bool{}
	}
	var events []stampedEvent
	var lastSend *stampedEvent
	for s := 0; s < steps; s++ {
		tr := rng.Intn(nTraces)
		kind := rng.Intn(3) // 0: internal, 1: send, 2: receive of lastSend
		if kind == 2 && (lastSend == nil || lastSend.trace == tr) {
			kind = 0
		}
		if kind == 2 {
			clocks[tr] = clocks[tr].Merge(lastSend.vc)
			for k := range lastSend.ancestors {
				anc[tr][k] = true
			}
			anc[tr][[2]int{lastSend.trace, lastSend.index}] = true
		}
		clocks[tr] = clocks[tr].Tick(tr)
		counts[tr]++
		ev := stampedEvent{
			trace:     tr,
			index:     counts[tr],
			vc:        clocks[tr].Clone(),
			ancestors: make(map[[2]int]bool, len(anc[tr])),
		}
		for k := range anc[tr] {
			ev.ancestors[k] = true
		}
		anc[tr][[2]int{tr, ev.index}] = true
		events = append(events, ev)
		if kind == 1 {
			evCopy := ev
			lastSend = &evCopy
		}
	}
	return events
}

// TestBeforeMatchesGroundTruth checks the O(1) Before test against the
// simulation's ground-truth ancestor sets, for every representation mix.
func TestBeforeMatchesGroundTruth(t *testing.T) {
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for round := 0; round < 20; round++ {
				events := newHistory(rng, 2+rng.Intn(5), 60, rep.newClock)
				for i, a := range events {
					for j, b := range events {
						if i == j {
							continue
						}
						want := b.ancestors[[2]int{a.trace, a.index}]
						got := Before(a.vc, a.trace, b.vc, b.trace)
						if got != want {
							t.Fatalf("round %d: Before(%v@%d, %v@%d) = %v, want %v",
								round, a.vc, a.trace, b.vc, b.trace, got, want)
						}
					}
				}
			}
		})
	}
}

// TestIndexConvention pins the va[ta] == index(a) invariant Before
// relies on: after a trace's i-th event, entry ta of its stamp is i —
// in every representation.
func TestIndexConvention(t *testing.T) {
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			events := newHistory(rng, 4, 120, rep.newClock)
			for _, e := range events {
				if got := e.vc.Get(e.trace); got != e.index {
					t.Fatalf("stamp entry %d for trace %d, want index %d (vc=%s)",
						got, e.trace, e.index, e.vc)
				}
			}
		})
	}
}

// TestPartialOrderLaws checks irreflexivity, antisymmetry and transitivity
// of Before, and symmetry of Concurrent, over simulated histories.
func TestPartialOrderLaws(t *testing.T) {
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			events := newHistory(rng, 4, 80, rep.newClock)
			for _, a := range events {
				if Before(a.vc, a.trace, a.vc, a.trace) {
					t.Fatalf("Before must be irreflexive: %v", a)
				}
				if Concurrent(a.vc, a.trace, a.vc, a.trace) {
					t.Fatalf("an event is not concurrent with itself: %v", a)
				}
			}
			for _, a := range events {
				for _, b := range events {
					ab := Before(a.vc, a.trace, b.vc, b.trace)
					ba := Before(b.vc, b.trace, a.vc, a.trace)
					if ab && ba {
						t.Fatalf("antisymmetry violated: %v <-> %v", a, b)
					}
					if got, want := Concurrent(a.vc, a.trace, b.vc, b.trace),
						Concurrent(b.vc, b.trace, a.vc, a.trace); got != want {
						t.Fatalf("concurrency must be symmetric")
					}
					for _, c := range events {
						if ab && Before(b.vc, b.trace, c.vc, c.trace) {
							if !Before(a.vc, a.trace, c.vc, c.trace) {
								t.Fatalf("transitivity violated: %v -> %v -> %v", a, b, c)
							}
						}
					}
				}
			}
		})
	}
}

// TestCompareConsistent checks Compare agrees with Before/Concurrent,
// including the same-trace equal/before/after cases, per representation.
func TestCompareConsistent(t *testing.T) {
	for _, rep := range reps {
		t.Run(rep.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			events := newHistory(rng, 3, 60, rep.newClock)
			for _, a := range events {
				for _, b := range events {
					r := Compare(a.vc, a.trace, b.vc, b.trace)
					switch {
					case a.trace == b.trace && a.index == b.index:
						if r != RelEqual {
							t.Fatalf("want equal, got %v", r)
						}
					case Before(a.vc, a.trace, b.vc, b.trace):
						if r != RelBefore {
							t.Fatalf("want before, got %v", r)
						}
					case Before(b.vc, b.trace, a.vc, a.trace):
						if r != RelAfter {
							t.Fatalf("want after, got %v", r)
						}
					default:
						if r != RelConcurrent {
							t.Fatalf("want concurrent, got %v", r)
						}
					}
				}
			}
		})
	}
}

// TestSameTraceCompare pins the same-trace fast path explicitly: two
// stamps on one trace order purely by that trace's entry.
func TestSameTraceCompare(t *testing.T) {
	mk := func(c Clock, ticks int) Clock {
		for i := 0; i < ticks; i++ {
			c = c.Tick(1)
		}
		return c
	}
	for _, rep := range reps[:2] {
		t.Run(rep.name, func(t *testing.T) {
			a := mk(rep.newClock(0), 2)
			b := mk(rep.newClock(0), 5)
			if Compare(a, 1, b, 1) != RelBefore || Compare(b, 1, a, 1) != RelAfter {
				t.Fatalf("same-trace before/after broken")
			}
			if Compare(a, 1, a.Clone(), 1) != RelEqual {
				t.Fatalf("same-trace equal broken")
			}
			if !Before(a, 1, b, 1) || Before(b, 1, a, 1) || Before(a, 1, a, 1) {
				t.Fatalf("same-trace Before broken")
			}
		})
	}
}

func TestRelationString(t *testing.T) {
	tests := []struct {
		r    Relation
		want string
	}{
		{RelBefore, "before"},
		{RelAfter, "after"},
		{RelEqual, "equal"},
		{RelConcurrent, "concurrent"},
		{Relation(0), "Relation(0)"},
	}
	for _, tc := range tests {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("Relation(%d).String() = %q, want %q", int(tc.r), got, tc.want)
		}
	}
}

// TestMergeProperties uses testing/quick to check algebraic laws of Merge
// — commutativity, idempotence, domination of both inputs — for the
// dense, sparse, and cross-representation cases.
func TestMergeProperties(t *testing.T) {
	norm := func(xs []uint8) VC {
		v := New(len(xs))
		for i, x := range xs {
			v[i] = int32(x)
		}
		return v
	}
	variants := []struct {
		name string
		lift func(VC) Clock
	}{
		{"dense", func(v VC) Clock { return v }},
		{"sparse", func(v VC) Clock { return SparseOf(v) }},
	}
	for _, va := range variants {
		for _, vb := range variants {
			name := va.name + "-" + vb.name
			t.Run(name, func(t *testing.T) {
				commutative := func(xs, ys []uint8) bool {
					a, b := va.lift(norm(xs)), vb.lift(norm(ys))
					return a.Clone().Merge(b).Equal(b.Clone().Merge(a))
				}
				if err := quick.Check(commutative, nil); err != nil {
					t.Errorf("merge not commutative: %v", err)
				}
				idempotent := func(xs []uint8) bool {
					a := va.lift(norm(xs))
					return a.Clone().Merge(a).Equal(a)
				}
				if err := quick.Check(idempotent, nil); err != nil {
					t.Errorf("merge not idempotent: %v", err)
				}
				dominates := func(xs, ys []uint8) bool {
					a, b := va.lift(norm(xs)), vb.lift(norm(ys))
					m := a.Clone().Merge(b)
					return a.LessEqual(m) && b.LessEqual(m)
				}
				if err := quick.Check(dominates, nil); err != nil {
					t.Errorf("merge does not dominate inputs: %v", err)
				}
			})
		}
	}
}

func TestStringFormat(t *testing.T) {
	if got, want := (VC{1, 2, 3}).String(), "[1 2 3]"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
	if got, want := (VC{}).String(), "[]"; got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

// BenchmarkBefore times the dense comparison as the matcher runs it:
// event timestamps are already Clock values (event.Event.VC), so the VC
// is boxed once, outside the loop, not on every call.
func BenchmarkBefore(b *testing.B) {
	var va, vb Clock = VC{5, 3, 8, 1, 9, 2, 7, 4}, VC{6, 3, 9, 1, 9, 2, 8, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Before(va, 2, vb, 5)
	}
}

func BenchmarkMerge(b *testing.B) {
	va := New(64)
	vb := New(64)
	for i := range vb {
		vb[i] = int32(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va.Merge(vb)
	}
}
