package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"podium/internal/server"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{600, 98}, // rank 588: 12 beyond; p99 (rank 594) leaves only 6
		{260, 95}, // rank 247: 13 beyond
		{180, 90}, // rank 162: 18 beyond; p95 (rank 171) leaves 9
		{100, 90}, // rank 90: exactly 10 beyond
		{99, 85},  // p90 is rank 90 (89.1 rounded up): 9 beyond
		{40, 75},  // rank 30: 10 beyond
		{20, 50},  // rank 10: 10 beyond
		{10000, 99.9},
	} {
		got, err := tailPercentile(tc.n)
		if err != nil || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v", tc.n, got, err, tc.want)
		}
		if beyond := tc.n - rank(got, tc.n); beyond < minBeyond {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", tc.n, got, beyond)
		}
	}
	if _, err := tailPercentile(19); err == nil {
		t.Error("19 samples: want an error, not a tail")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted input
	}
	lat, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if lat.P50 != 50.5 || lat.TailAt != 90 || lat.Tail != 90 || lat.N != 100 {
		t.Errorf("summarize = %+v; want p50 50.5, p90 = 90", lat)
	}
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
}

func TestClassify(t *testing.T) {
	base := server.SelectCacheStats{Hits: 5, Misses: 3, Bypass: 1, Repairs: 2}
	hit, miss, bypass := base, base, base
	hit.Hits++
	miss.Misses++
	miss.Repairs++
	bypass.Bypass++
	for _, tc := range []struct {
		after server.SelectCacheStats
		want  string
	}{
		{hit, kindHit}, {miss, kindMiss}, {bypass, kindBypass}, {base, kindUncached},
	} {
		if got := classify(base, tc.after); got != tc.want {
			t.Errorf("classify(%+v) = %q, want %q", tc.after, got, tc.want)
		}
	}
	c := cacheCounts(base, miss)
	if c["misses"] != 1 || c["hits"] != 0 || c["repairs"] != 1 {
		t.Errorf("cacheCounts = %v", c)
	}
}

func TestSelfTimes(t *testing.T) {
	ns := func(ms int64) int64 { return ms * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "select", Start: ns(0), End: ns(100)},
		// Two concurrent legs overlapping on [20, 40]: union 10..60 = 50ms.
		{ID: 2, Parent: 1, Name: "leg", Start: ns(10), End: ns(40)},
		{ID: 3, Parent: 1, Name: "leg", Start: ns(20), End: ns(60)},
		// A grandchild counts against its parent leg only.
		{ID: 4, Parent: 3, Name: "serve", Start: ns(25), End: ns(35)},
		// A child sticking out of its parent is clipped to the parent.
		{ID: 5, Name: "root", Start: ns(200), End: ns(210)},
		{ID: 6, Parent: 5, Name: "late", Start: ns(205), End: ns(230)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * time.Millisecond, 2: 30 * time.Millisecond, 3: 30 * time.Millisecond,
		4: 10 * time.Millisecond, 5: 5 * time.Millisecond, 6: 25 * time.Millisecond}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if got := coveredNs(0, 100, [][2]int64{{50, 60}, {0, 10}, {5, 20}}); got != 30 {
		t.Errorf("coveredNs = %d, want 30", got)
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.reserve("x", 0, 0)
	tr.fill(id, "", time.Now(), time.Now())
	tr.add("x", "", 0, 0, time.Now(), time.Now())
	if id != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestSweepSequence(t *testing.T) {
	const n = 260
	shapes, ranks, seq := sweepSequence(7, n)
	if len(seq) != n {
		t.Fatalf("%d requests, want %d", len(seq), n)
	}
	distinct := map[int]bool{}
	for _, i := range seq {
		distinct[i] = true
	}
	if hits := n - len(distinct); hits != n-len(shapes) || hits != 52 {
		t.Errorf("%d repeats, want 52 (20%% of %d)", hits, n)
	}
	keys := map[string]bool{}
	fb := 0
	for i, s := range shapes {
		keys[s.key()] = true
		if s.Budget < 1 || s.Budget > sweepMaxK || s.TopK < 1 || s.TopK > sweepMaxTopK {
			t.Errorf("shape %d out of range: %+v", i, s)
		}
		if ranks[i] != nil {
			fb++
			if s.Rule != "" {
				t.Errorf("feedback shape %d uses rule %q", i, s.Rule)
			}
		}
	}
	if len(keys) != len(shapes) {
		t.Errorf("%d distinct keys among %d shapes", len(keys), len(shapes))
	}
	// Feedback is one cell slot in sweepFbEvery; a partial last round of
	// cells moves the share by a few shapes.
	if d := fb - len(shapes)/sweepFbEvery; d < -4 || d > 4 {
		t.Errorf("%d feedback shapes among %d", fb, len(shapes))
	}
	_, _, again := sweepSequence(7, n)
	for i := range seq {
		if seq[i] != again[i] {
			t.Fatal("same seed, different sequence")
		}
	}
}

// TestManifestMetrics keeps the result line's metric names in step with
// BENCHMARK.json.
func TestManifestMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		man  []struct{ Name string }
		code []string
	}{{"end_to_end", man.EndToEnd, endToEnd}, {"per_layer", man.PerLayer, perLayer}} {
		var names []string
		for _, m := range tc.man {
			names = append(names, m.Name)
		}
		sort.Strings(names)
		code := append([]string(nil), tc.code...)
		sort.Strings(code)
		if strings.Join(names, ",") != strings.Join(code, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark reports %v", tc.kind, names, code)
		}
	}
}

// TestResultMetricsMissing: a metric the run did not measure fails it.
func TestResultMetricsMissing(t *testing.T) {
	res := newResult()
	for _, n := range perLayer[1:] {
		res.setLayer(n, "ms", 1)
	}
	res.absent[perLayer[0]] = "not reached"
	got := resultMetrics(config{trace: true}, res)
	if _, failed := res.totals(); failed != 1 || len(got) != len(perLayer)-1 {
		t.Errorf("%d failed, %d metrics; want 1 failure and %d metrics", failed, len(got), len(perLayer)-1)
	}
}
