package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"podium/internal/server"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseOps counts the operations of one phase of a run. Non-2xx responses,
// transport errors and verification mismatches count as failed.
type phaseOps struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// result collects everything one run reports.
type result struct {
	e2e    map[string]metric
	writes map[string]metric // end-to-end, on workloads that write
	layer  map[string]metric
	absent map[string]string
	// counts are the exact-repeat counters: for a fixed seed they must not
	// change from run to run, only the times may.
	counts map[string]int64
	info   map[string]interface{}
	phases map[string]*phaseOps
	errors []string
}

func newResult() *result {
	return &result{
		e2e: map[string]metric{}, writes: map[string]metric{}, layer: map[string]metric{}, absent: map[string]string{},
		counts: map[string]int64{}, info: map[string]interface{}{}, phases: map[string]*phaseOps{},
	}
}

func (r *result) op(phase string, ok bool) {
	p := r.phases[phase]
	if p == nil {
		p = &phaseOps{}
		r.phases[phase] = p
	}
	p.Attempted++
	if ok {
		p.Succeeded++
	} else {
		p.Failed++
	}
}

// fail records a failed operation in phase with its reason.
func (r *result) fail(phase, format string, args ...interface{}) {
	r.op(phase, false)
	if len(r.errors) < 20 {
		r.errors = append(r.errors, phase+": "+fmt.Sprintf(format, args...))
	}
}

// check records one verification as an operation of the verify phase.
func (r *result) check(ok bool, format string, args ...interface{}) {
	if ok {
		r.op("verify", true)
		return
	}
	r.fail("verify", format, args...)
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

func (r *result) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// setLayerSamples reports the median of samples, or marks the metric absent
// with reason when there are none.
func (r *result) setLayerSamples(name, unit string, samples []float64, reason string) {
	if len(samples) == 0 {
		r.absent[name] = reason
		return
	}
	r.setLayer(name, unit, median(samples))
}

// recorder is a reusable in-memory http.ResponseWriter: one body buffer
// serves every request of a run, so the client side allocates next to
// nothing per request and the measurement stays on the server.
type recorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{code: http.StatusOK, hdr: make(http.Header)} }

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *recorder) WriteHeader(code int)        { r.code = code }

func (r *recorder) reset() {
	r.code = http.StatusOK
	for k := range r.hdr {
		delete(r.hdr, k)
	}
	r.body.Reset()
}

// call serves one request in-process and returns its latency. The request
// is built before the clock starts.
func call(h http.Handler, rec *recorder, method, target string, body []byte) time.Duration {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec.reset()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(t0)
}

func ok2xx(code int) bool { return code >= 200 && code < 300 }

// Outcomes of one select as seen through the server's cache counters.
const (
	kindHit      = "hit"
	kindMiss     = "miss"
	kindBypass   = "bypass"
	kindUncached = "uncached"
)

// classify names what the select cache did for one request from the
// counters read just before and just after it. The benchmark drives one
// request at a time, so the delta belongs to that request alone.
func classify(before, after server.SelectCacheStats) string {
	switch {
	case after.Misses > before.Misses:
		return kindMiss
	case after.Hits > before.Hits:
		return kindHit
	case after.Bypass > before.Bypass:
		return kindBypass
	}
	return kindUncached
}

// cacheCounts is the exact-repeat view of a counter delta.
func cacheCounts(before, after server.SelectCacheStats) map[string]int64 {
	return map[string]int64{
		"hits":            int64(after.Hits - before.Hits),
		"misses":          int64(after.Misses - before.Misses),
		"repairs":         int64(after.Repairs - before.Repairs),
		"recomputes":      int64(after.Recomputes - before.Recomputes),
		"repaired_rows":   int64(after.RepairedRows - before.RepairedRows),
		"entry_evictions": int64(after.EntryEvictions - before.EntryEvictions),
		"state_evictions": int64(after.StateEvicts - before.StateEvicts),
	}
}

func addStats(a, b server.SelectCacheStats) server.SelectCacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Bypass += b.Bypass
	a.EntryEvictions += b.EntryEvictions
	a.StateEvicts += b.StateEvicts
	a.Repairs += b.Repairs
	a.Recomputes += b.Recomputes
	a.RepairedRows += b.RepairedRows
	a.Entries += b.Entries
	return a
}

// setCacheLayer reports the server-layer cache metrics of the measured phase.
func (r *result) setCacheLayer(before, after server.SelectCacheStats) {
	c := cacheCounts(before, after)
	for k, v := range c {
		r.counts[k] = v
	}
	ratio := 0.0
	if n := c["hits"] + c["misses"]; n > 0 {
		ratio = float64(c["hits"]) / float64(n)
	}
	r.setLayer("server.hit_ratio", "ratio", ratio)
	r.setLayer("server.repairs", "count", float64(c["repairs"]))
	r.setLayer("server.recomputes", "count", float64(c["recomputes"]))
	r.setLayer("server.repaired_rows", "count", float64(c["repaired_rows"]))
	r.setLayer("server.entry_evictions", "count", float64(c["entry_evictions"]))
	r.setLayer("server.state_evictions", "count", float64(c["state_evictions"]))
	r.setLayer("server.cache_entries", "count", float64(after.Entries))
}

// memStats is a GC-settled memory reading.
type memStats struct {
	heapAlloc, totalAlloc uint64
	numGC                 uint32
}

func readMem(gc bool) memStats {
	if gc {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.HeapAlloc, m.TotalAlloc, m.NumGC}
}

// userIDs extracts the picked user IDs, in pick order, from a select
// response body.
func userIDs(body []byte) ([]int, error) {
	var resp struct {
		Users []struct {
			ID int `json:"id"`
		} `json:"users"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	ids := make([]int, len(resp.Users))
	for i, u := range resp.Users {
		ids[i] = u.ID
	}
	return ids, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
