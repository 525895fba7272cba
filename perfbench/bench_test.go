package main

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"xarch"
)

func TestPercentileSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort a copy
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		value  float64
		beyond int
		enough bool
	}{
		{100, 0.9, 90, 10, true},    // a p90 needs 100 samples
		{99, 0.9, 90, 9, false},     // rank ceil(89.1) = 90 leaves 9 above
		{1000, 0.99, 990, 10, true}, // a p99 needs 1000 samples
		{999, 0.99, 990, 9, false},
		{20, 0.5, 10, 10, true},
		{19, 0.5, 10, 9, false},
		{1, 0.99, 1, 0, false},
	} {
		xs := seq(tc.n)
		got := percentile(xs, tc.q)
		if got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n || got.Enough() != tc.enough {
			t.Errorf("percentile(n=%d, q=%v) = %+v enough=%v; want value %v beyond %d enough %v",
				tc.n, tc.q, got, got.Enough(), tc.value, tc.beyond, tc.enough)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if got := percentile(nil, 0.5); got.N != 0 || got.Value != 0 || got.Enough() {
		t.Errorf("percentile of no samples = %+v", got)
	}
}

// fakeClock is a single-worker virtual clock: sleeping jumps to the
// wake-up time and a request advances time by its service time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) { c.now = max(c.now, t) }

func TestOpenLoopLateness(t *testing.T) {
	// Due every 10 ms; the 2nd request takes 35 ms, the rest 5 ms. One
	// connection: requests due while it is busy are sent late, and the
	// backlog drains at 5 ms per request.
	service := []time.Duration{5, 35, 5, 5, 5, 5}
	var reqs []*request
	for i := range service {
		reqs = append(reqs, &request{ID: int64(i + 1), Due: time.Duration(i) * 10 * time.Millisecond})
	}
	clk := &fakeClock{}
	res := openLoop(reqs, 1, clk, time.Hour, func(_ int, r *result) {
		clk.now += service[r.req.ID-1] * time.Millisecond
	})
	wantLate := []time.Duration{0, 0, 25, 20, 15, 10}
	wantLatency := []time.Duration{5, 35, 30, 25, 20, 15}
	for i, r := range res {
		if r.late() != wantLate[i]*time.Millisecond || r.latency() != wantLatency[i]*time.Millisecond {
			t.Errorf("request %d: late %v latency %v; want %v, %v",
				i+1, r.late(), r.latency(), wantLate[i]*time.Millisecond, wantLatency[i]*time.Millisecond)
		}
	}
}

func TestOpenLoopGivesUpOnBacklog(t *testing.T) {
	reqs := []*request{{ID: 1, Due: 0}, {ID: 2, Due: time.Millisecond}}
	clk := &fakeClock{}
	res := openLoop(reqs, 1, clk, 50*time.Millisecond, func(_ int, r *result) { clk.now += time.Second })
	if !res[0].ok() || res[1].Err != errGaveUp {
		t.Fatalf("results %v, %v; want the second request given up", res[0].Err, res[1].Err)
	}
}

func TestClosedLoopLatencyFromSend(t *testing.T) {
	clk := &fakeClock{now: 7 * time.Millisecond}
	res := closedLoop([]*request{{ID: 1}, {ID: 2}}, clk, func(r *result) { clk.now += 3 * time.Millisecond })
	for _, r := range res {
		if r.late() != 0 || r.latency() != 3*time.Millisecond {
			t.Errorf("closed-loop request %d: late %v latency %v", r.req.ID, r.late(), r.latency())
		}
	}
}

func sp(start, end int64) span { return span{Start: start, End: end} }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := sp(0, 100)
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 50)}, 70},
		{"overlapping", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested", []span{sp(10, 90), sp(20, 30)}, 20},
		{"clipped to parent", []span{sp(-50, 10), sp(95, 200)}, 85},
		{"outside", []span{sp(200, 300)}, 100},
		{"unsorted", []span{sp(70, 80), sp(10, 20), sp(15, 25)}, 75},
		{"covering", []span{sp(0, 60), sp(50, 100)}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCommitBatchAttribution(t *testing.T) {
	// Batches sorted by end. Each add belongs to the last batch that
	// ended before its handler did.
	batches := []span{sp(10, 30), sp(30, 50), sp(55, 80)}
	handlers := []span{
		sp(0, 31),  // answered just after batch 0
		sp(12, 52), // queued behind batch 0, committed by batch 1
		sp(40, 52), // admitted during batch 1, same batch
		sp(51, 85), // committed by batch 2
		sp(0, 5),   // answered before any batch ended: none
	}
	got := commitBatch(handlers, batches)
	want := []int{0, 1, 1, 2, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("handler %d: batch %d, want %d", i, got[i], want[i])
		}
	}
	// The wait from handler entry to the start of its batch.
	if w := batches[got[1]].Start - handlers[1].Start; w != 18 {
		t.Errorf("wait %d, want 18", w)
	}
}

func TestExprForStaysInsideHead(t *testing.T) {
	for _, u := range []float64{0, 0.5, 0.999999} {
		r := &request{Sel: "/db/rec[id=r01]", U: u, U2: u}
		for head := 1; head <= 30; head++ {
			e := r.exprFor(head)
			var a, b int
			if n, _ := fmt.Sscanf(e, "/db/rec[id=r01] AND changed %d..%d", &a, &b); n != 2 || a < 1 || b < a || b > head {
				t.Fatalf("exprFor(%d) with u=%v = %q", head, u, e)
			}
		}
		r.Wide = true
		if e := r.exprFor(1); e != "changed 1.." {
			t.Fatalf("wide exprFor(1) = %q", e)
		}
	}
	if v := (&request{U: 0.999999}).versionFor(7); v != 7 {
		t.Fatalf("versionFor(7) = %d", v)
	}
	if v := (&request{U: 0}).versionFor(7); v != 1 {
		t.Fatalf("versionFor(7) = %d", v)
	}
}

func TestRatioOfNothingIsZero(t *testing.T) {
	if r := ratio(5, 0); r != 0 || math.IsNaN(r) {
		t.Fatalf("ratio(5, 0) = %v", r)
	}
}

func TestCheckRunMatchesReadsToTheirStateRange(t *testing.T) {
	spec, err := xarch.ParseKeySpec(serviceSpec)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(v int) []byte {
		return []byte(fmt.Sprintf("<db><rec><id>r00</id><v>%d</v></rec></db>", v))
	}
	seed := [][]byte{doc(1), doc(2)}
	// Reference answers at two and at three versions.
	o := newOracle(spec)
	var at [4][2]uint64
	for v, body := range append(append([][]byte(nil), seed...), doc(3)) {
		if err := o.add(body); err != nil {
			t.Fatal(err)
		}
		if at[v+1], err = o.history("/db/rec[id=r00]"); err != nil {
			t.Fatal(err)
		}
	}
	add := &result{req: &request{Kind: opAdd, Body: doc(3)}, Sent: 10, End: 20, Version: 3}
	read := func(end time.Duration, h [2]uint64) *result {
		return &result{req: &request{Kind: opHistory, Sel: "/db/rec[id=r00]"}, Lo: 2, End: end, Hash: h[0], Hash2: h[1]}
	}
	before := read(5, at[2])     // ended before the add was sent: must match state 2
	tooNew := read(5, at[3])     // claims state 3 before the add was sent: wrong
	during := read(15, at[3])    // overlapped the add: state 3 is allowed
	duringOld := read(15, at[2]) // ... and so is state 2
	results := []*result{add, before, tooNew, during, duringOld}
	if _, err := checkRun(spec, seed, results); err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*result{"before": before, "during": during, "duringOld": duringOld} {
		if !r.ok() {
			t.Errorf("%s: %v", name, r.Err)
		}
	}
	if !errors.Is(tooNew.Err, errWrong) {
		t.Errorf("tooNew: %v, want a wrong answer", tooNew.Err)
	}
}

func TestCheckRunHistoryMustMatchOneState(t *testing.T) {
	spec, err := xarch.ParseKeySpec(serviceSpec)
	if err != nil {
		t.Fatal(err)
	}
	// r01 exists from version 2 and its value changes in version 3, so
	// both the versions and the changes of its history differ between
	// states 2 and 3.
	doc := func(v int) []byte {
		if v == 1 {
			return []byte("<db><rec><id>r00</id><v>1</v></rec></db>")
		}
		return []byte(fmt.Sprintf("<db><rec><id>r00</id><v>1</v></rec><rec><id>r01</id><v>%d</v></rec></db>", v))
	}
	seed := [][]byte{doc(1), doc(2)}
	o := newOracle(spec)
	var at [4][2]uint64
	for v, body := range append(append([][]byte(nil), seed...), doc(3)) {
		if err := o.add(body); err != nil {
			t.Fatal(err)
		}
		if v == 0 {
			continue
		}
		if at[v+1], err = o.history("/db/rec[id=r01]/v"); err != nil {
			t.Fatal(err)
		}
	}
	if at[2][0] == at[3][0] || at[2][1] == at[3][1] {
		t.Fatalf("states 2 and 3 must differ in both digests for this test: %v", at)
	}
	add := &result{req: &request{Kind: opAdd, Body: doc(3)}, Sent: 10, End: 20, Version: 3}
	// Overlapped the add, so states 2 and 3 are both allowed, but its
	// versions come from state 2 and its changes from state 3.
	mixed := &result{req: &request{Kind: opHistory, Sel: "/db/rec[id=r01]/v"}, Lo: 2, End: 15,
		Hash: at[2][0], Hash2: at[3][1]}
	if _, err := checkRun(spec, seed, []*result{add, mixed}); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(mixed.Err, errWrong) {
		t.Errorf("mixed: %v, want a wrong answer", mixed.Err)
	}
}

func TestCheckRunMisnumberedAddKeepsChecking(t *testing.T) {
	spec, err := xarch.ParseKeySpec(serviceSpec)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(v int) []byte {
		return []byte(fmt.Sprintf("<db><rec><id>r00</id><v>%d</v></rec></db>", v))
	}
	seed := [][]byte{doc(1), doc(2)}
	o := newOracle(spec)
	for _, body := range append(append([][]byte(nil), seed...), doc(3)) {
		if err := o.add(body); err != nil {
			t.Fatal(err)
		}
	}
	v3, err := o.version(3)
	if err != nil {
		t.Fatal(err)
	}
	good := &result{req: &request{Kind: opAdd, Body: doc(3)}, Sent: 10, End: 20, Version: 3}
	skipped := &result{req: &request{Kind: opAdd, Body: doc(4)}, Sent: 30, End: 40, Version: 5}
	right := &result{req: &request{Kind: opVersion}, N: 3, Lo: 3, End: 50, Hash: v3}
	wrong := &result{req: &request{Kind: opVersion}, N: 3, Lo: 3, End: 50, Hash: v3 + 1}
	beyond := &result{req: &request{Kind: opVersion}, N: 5, Lo: 3, End: 50, Hash: v3}
	committed, err := checkRun(spec, seed, []*result{good, skipped, right, wrong, beyond})
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != 3 {
		t.Errorf("committed %d versions, want 3", len(committed))
	}
	if !good.ok() || !right.ok() {
		t.Errorf("good: %v, right: %v; want both to pass", good.Err, right.Err)
	}
	for name, r := range map[string]*result{"skipped": skipped, "wrong": wrong, "beyond": beyond} {
		if !errors.Is(r.Err, errWrong) {
			t.Errorf("%s: %v, want a wrong answer", name, r.Err)
		}
	}
}

func TestWindowedCountsEveryEndpoint(t *testing.T) {
	window := func(version, history, sel float64) []*result {
		var w []*result
		for i := range 3 {
			for _, k := range []struct {
				kind opKind
				ms   float64
			}{{opVersion, version}, {opHistory, history}, {opSelect, sel}} {
				// Spread each endpoint's samples around its median.
				lat := time.Duration(k.ms * float64(i+1) / 2 * 1e6)
				w = append(w, &result{req: &request{Kind: k.kind}, End: lat})
			}
		}
		return w
	}
	ph := &phase{windows: [][]*result{window(18, 0.3, 0.75), window(18, 0.75, 0.75)}}
	got := ph.windowed()
	want := math.Cbrt(18 * 0.3 * 0.75)
	if len(got) != 2 || math.Abs(got[0]-want) > 1e-9 {
		t.Fatalf("windowed = %v, want %v first", got, want)
	}
	// History 2.5 times slower moves the figure by the cube root of 2.5,
	// though the pooled median would stay inside the select cluster.
	if r := got[1] / got[0]; math.Abs(r-math.Cbrt(2.5)) > 1e-9 {
		t.Errorf("history 2.5x slower moved the figure by %v, want %v", r, math.Cbrt(2.5))
	}
	ingest := &phase{windows: [][]*result{{
		{req: &request{Kind: opAdd}, End: 100e6}, {req: &request{Kind: opAdd}, End: 300e6},
		{req: &request{Kind: opAdd}, End: 200e6}, {req: &request{Kind: opAdd}, End: 9e9, Err: errWrong},
	}}}
	if got := ingest.windowed(); len(got) != 1 || math.Abs(got[0]-200) > 1e-9 {
		t.Errorf("one endpoint: windowed = %v, want its median 200", got)
	}
}
