package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"podium/internal/core"
)

// TestSelectCachePrettyVariant: ?pretty=1 and compact responses are distinct
// cache entries — the pretty bytes must be indented, the compact ones must
// not, and serving one shape must never satisfy a request for the other
// (the regression this key field exists for). Repeats of each shape hit.
func TestSelectCachePrettyVariant(t *testing.T) {
	s := newTestServer(t)

	compact := doJSON(t, s, http.MethodPost, "/api/select", `{"budget":2}`, nil)
	pretty := doJSON(t, s, http.MethodPost, "/api/select?pretty=1", `{"budget":2}`, nil)
	if compact.Code != http.StatusOK || pretty.Code != http.StatusOK {
		t.Fatalf("select codes: compact %d, pretty %d", compact.Code, pretty.Code)
	}
	if bytes.Contains(compact.Body.Bytes(), []byte("\n  ")) {
		t.Fatal("compact response contains indentation")
	}
	if !bytes.Contains(pretty.Body.Bytes(), []byte("\n  ")) {
		t.Fatal("pretty response is not indented")
	}
	if bytes.Equal(compact.Body.Bytes(), pretty.Body.Bytes()) {
		t.Fatal("pretty and compact requests served identical bytes")
	}

	// Both shapes decode to the same payload.
	var a, b map[string]interface{}
	decodeBody(t, compact, &a)
	decodeBody(t, pretty, &b)
	if len(a) != len(b) || a["score"] != b["score"] {
		t.Fatalf("pretty and compact payloads differ: %v vs %v", a, b)
	}

	// Repeats of each shape are cache hits serving the same bytes.
	before := s.SelectCacheStats()
	c2 := doJSON(t, s, http.MethodPost, "/api/select", `{"budget":2}`, nil)
	p2 := doJSON(t, s, http.MethodPost, "/api/select?pretty=1", `{"budget":2}`, nil)
	after := s.SelectCacheStats()
	if !bytes.Equal(c2.Body.Bytes(), compact.Body.Bytes()) || !bytes.Equal(p2.Body.Bytes(), pretty.Body.Bytes()) {
		t.Fatal("repeat requests served different bytes")
	}
	if hits := after.Hits - before.Hits; hits != 2 {
		t.Fatalf("repeat requests scored %d hits, want 2 (misses %d→%d)", hits, before.Misses, after.Misses)
	}
}

// TestSelectCacheWatermark drives the full invalidation model through a live
// server: repeats hit; a selection-irrelevant write (same-bucket score
// rewrite) publishes a new epoch that still hits; a bucket-moving write
// misses; and the post-churn cached response is byte-identical to what the
// recompute-every-epoch baseline (cache disabled) produces.
func TestSelectCacheWatermark(t *testing.T) {
	ms, _ := newMutable(t)
	for _, body := range []string{
		`{"name":"A","properties":{"p":0.05,"q":0.9}}`,
		`{"name":"B","properties":{"p":0.5,"q":0.2}}`,
		`{"name":"C","properties":{"p":0.95}}`,
		`{"name":"D","properties":{"q":0.55}}`,
	} {
		if rec := doMutable(t, ms, http.MethodPost, "/api/users", body, nil); rec.Code != http.StatusOK {
			t.Fatalf("seed: %d: %s", rec.Code, rec.Body.String())
		}
	}
	sel := func() []byte {
		t.Helper()
		rec := doMutable(t, ms, http.MethodPost, "/api/select", `{"budget":2}`, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("select: %d: %s", rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}

	first := sel()
	st0 := ms.SelectCacheStats()
	if st0.Misses == 0 {
		t.Fatal("first select did not miss")
	}
	if !bytes.Equal(sel(), first) {
		t.Fatal("repeat select changed bytes on an unchanged population")
	}
	st1 := ms.SelectCacheStats()
	if st1.Hits != st0.Hits+1 {
		t.Fatalf("repeat select: hits %d→%d, want +1", st0.Hits, st1.Hits)
	}

	// Same-bucket rewrite: user A's p stays at its current value. The batch
	// publishes a new epoch, but nothing selection-relevant moved — the
	// cached entry must ride through.
	epochBefore := ms.Snapshot().Epoch()
	if rec := doMutable(t, ms, http.MethodPost, "/api/scores", `{"user":0,"label":"p","score":0.05}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("same-bucket write: %d: %s", rec.Code, rec.Body.String())
	}
	if e := ms.Snapshot().Epoch(); e == epochBefore {
		t.Fatal("same-bucket write did not publish a new epoch")
	}
	if !bytes.Equal(sel(), first) {
		t.Fatal("select changed after a selection-irrelevant write")
	}
	st2 := ms.SelectCacheStats()
	if st2.Hits != st1.Hits+1 || st2.Misses != st1.Misses {
		t.Fatalf("same-bucket write evicted the cache: hits %d→%d misses %d→%d",
			st1.Hits, st2.Hits, st1.Misses, st2.Misses)
	}

	// Selection-relevant writes: a brand-new property (bucketed live — a
	// reshape) and a new user (new adjacency rows). The watermark advances
	// and the next select must recompute.
	if rec := doMutable(t, ms, http.MethodPost, "/api/scores", `{"user":0,"label":"r","score":0.8}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("new-property write: %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doMutable(t, ms, http.MethodPost, "/api/users", `{"name":"E","properties":{"p":0.4,"q":0.6}}`, nil); rec.Code != http.StatusOK {
		t.Fatalf("late user add: %d: %s", rec.Code, rec.Body.String())
	}
	moved := sel()
	st3 := ms.SelectCacheStats()
	if st3.Misses != st2.Misses+1 {
		t.Fatalf("relevant writes not invalidated: misses %d→%d", st2.Misses, st3.Misses)
	}

	// The repaired response must be byte-identical to the baseline: disable
	// the cache (recompute-every-epoch path) and compare.
	ms.SetSelectCacheEnabled(false)
	baseline := sel()
	ms.SetSelectCacheEnabled(true)
	if !bytes.Equal(moved, baseline) {
		t.Fatalf("cached select diverged from baseline:\ncached:   %s\nbaseline: %s", moved, baseline)
	}
	if !bytes.Equal(sel(), baseline) {
		t.Fatal("re-enabled cache serves bytes differing from baseline")
	}
}

// TestSelectCacheFeedback: feedback-restricted selections are cached on their
// canonicalized feedback key — repeats hit, distinct feedback sets are
// distinct entries, and the feedback-free entry is never served for a
// feedback request (or vice versa). Invalid feedback stays a 400 and is never
// cached.
func TestSelectCacheFeedback(t *testing.T) {
	s := newTestServer(t)

	free := doJSON(t, s, http.MethodPost, "/api/select", `{"budget":2}`, nil)
	fb := doJSON(t, s, http.MethodPost, "/api/select", `{"budget":2,"feedback":{"priority":[0],"standard_explicit":true}}`, nil)
	if free.Code != http.StatusOK || fb.Code != http.StatusOK {
		t.Fatalf("codes: free %d, feedback %d", free.Code, fb.Code)
	}
	if bytes.Equal(free.Body.Bytes(), fb.Body.Bytes()) {
		t.Fatal("feedback select served the feedback-free entry")
	}

	before := s.SelectCacheStats()
	fb2 := doJSON(t, s, http.MethodPost, "/api/select", `{"budget":2,"feedback":{"priority":[0],"standard_explicit":true}}`, nil)
	after := s.SelectCacheStats()
	if !bytes.Equal(fb2.Body.Bytes(), fb.Body.Bytes()) {
		t.Fatal("repeat feedback select changed bytes")
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("repeat feedback select did not hit: hits %d→%d", before.Hits, after.Hits)
	}

	// A different restriction is a different entry, not a wrong answer.
	other := doJSON(t, s, http.MethodPost, "/api/select", `{"budget":2,"feedback":{"must_not":[0]}}`, nil)
	if other.Code != http.StatusOK {
		t.Fatalf("must_not select: %d: %s", other.Code, other.Body.String())
	}

	// Invalid feedback: 400 every time, never cached into a poisoned entry.
	for i := 0; i < 2; i++ {
		if rec := doJSON(t, s, http.MethodPost, "/api/select", `{"budget":2,"feedback":{"priority":[999]}}`, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("invalid feedback attempt %d: code %d", i, rec.Code)
		}
	}
}

// TestSelectCacheDisabled is the cached / uncached / traced differential:
// for every select shape — each registered rule (on EBS weights too where the
// rule supports them), ?pretty=1, a feedback restriction and two top_k values
// — the cache's miss and hit bodies, the body served with the cache disabled
// (one fresh selection per request), and the traced body with its trace key
// removed are all the same response. The disabled path touches no cache
// counter; a traced request counts only as a bypass.
func TestSelectCacheDisabled(t *testing.T) {
	type shape struct{ name, path, body string }
	var shapes []shape
	for _, rl := range core.Rules() {
		shapes = append(shapes, shape{rl.Name(), "/api/v1/select", fmt.Sprintf(`{"budget":2,"rule":%q}`, rl.Name())})
		if rl.EBSCompatible() {
			shapes = append(shapes, shape{rl.Name() + "/ebs", "/api/v1/select", fmt.Sprintf(`{"budget":2,"rule":%q,"weights":"EBS"}`, rl.Name())})
		}
	}
	shapes = append(shapes,
		shape{"pretty", "/api/v1/select?pretty=1", `{"budget":2}`},
		shape{"feedback", "/api/v1/select", `{"budget":2,"feedback":{"priority":[0],"standard_explicit":true}}`},
		shape{"top_k=1", "/api/v1/select", `{"budget":2,"top_k":1}`},
		shape{"top_k=5", "/api/v1/select", `{"budget":3,"top_k":5}`},
	)
	// decode parses a response body keeping numbers as written, so the
	// comparison is exact.
	decode := func(t *testing.T, data []byte) map[string]interface{} {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		var m map[string]interface{}
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
		return m
	}

	s := newTestServer(t)
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			sel := func() []byte {
				t.Helper()
				rec := doJSON(t, s, http.MethodPost, sh.path, sh.body, nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("select = %d: %s", rec.Code, rec.Body.String())
				}
				return rec.Body.Bytes()
			}
			miss, hit := sel(), sel()
			if !bytes.Equal(miss, hit) {
				t.Fatalf("cache hit differs from its miss:\nmiss: %s\nhit:  %s", miss, hit)
			}

			s.SetSelectCacheEnabled(false)
			before := s.SelectCacheStats()
			uncached := sel()
			after := s.SelectCacheStats()
			s.SetSelectCacheEnabled(true)
			if !bytes.Equal(uncached, hit) {
				t.Fatalf("uncached body differs from cached:\ncached:   %s\nuncached: %s", hit, uncached)
			}
			if after.Hits != before.Hits || after.Misses != before.Misses || after.Bypass != before.Bypass {
				t.Fatalf("disabled cache still counted traffic: %+v → %+v", before, after)
			}

			req := httptest.NewRequest(http.MethodPost, sh.path, strings.NewReader(sh.body))
			req.Header.Set("X-Podium-Trace", "1")
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			traced := s.SelectCacheStats()
			if rec.Code != http.StatusOK {
				t.Fatalf("traced select = %d: %s", rec.Code, rec.Body.String())
			}
			if traced.Hits != after.Hits || traced.Misses != after.Misses || traced.Bypass != after.Bypass+1 {
				t.Fatalf("traced select: cache stats %+v → %+v, want one bypass", after, traced)
			}
			got := decode(t, rec.Body.Bytes())
			if got["trace"] == nil {
				t.Fatalf("traced body has no trace: %s", rec.Body.String())
			}
			delete(got, "trace")
			if want := decode(t, uncached); !reflect.DeepEqual(got, want) {
				t.Fatalf("traced body differs from uncached:\ntraced:   %s\nuncached: %s", rec.Body.String(), uncached)
			}
		})
	}
}

// TestSelectCacheTopKClamp: the report clamps top_k to the group count, so
// every top_k past it names the same response and must be served from the
// same cache entry rather than fill the cache with duplicates.
func TestSelectCacheTopKClamp(t *testing.T) {
	s := newTestServer(t)
	n := s.Snapshot().Index().NumGroups()
	exact := doJSON(t, s, http.MethodPost, "/api/v1/select", fmt.Sprintf(`{"budget":2,"top_k":%d}`, n), nil)
	before := s.SelectCacheStats()
	huge := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2,"top_k":10000}`, nil)
	after := s.SelectCacheStats()
	if exact.Code != http.StatusOK || huge.Code != http.StatusOK {
		t.Fatalf("select codes: top_k=%d %d, top_k=10000 %d", n, exact.Code, huge.Code)
	}
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Entries != before.Entries {
		t.Fatalf("top_k=10000 after top_k=%d: stats %+v → %+v, want one hit and no new entry", n, before, after)
	}
	if !bytes.Equal(exact.Body.Bytes(), huge.Body.Bytes()) {
		t.Fatalf("clamped top_k served different bytes:\n%d: %s\n10000: %s", n, exact.Body.String(), huge.Body.String())
	}
}

// TestSelectCacheMissReportsEngineStages: a select-cache miss runs the
// seeded eager engine, which must count one selection and observe its
// argmax stage in the engine metric families; a following hit runs no
// engine and must observe neither.
func TestSelectCacheMissReportsEngineStages(t *testing.T) {
	s := newTestServer(t)
	scrape := func() (selections, argmax string) {
		t.Helper()
		rec := doJSON(t, s, http.MethodGet, "/api/v1/metrics", "", nil)
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if f := strings.Fields(line); len(f) == 2 {
				switch f[0] {
				case "podium_engine_selections_total":
					selections = f[1]
				case `podium_engine_stage_seconds_count{stage="argmax"}`:
					argmax = f[1]
				}
			}
		}
		return selections, argmax
	}
	if sel, am := scrape(); sel != "0" || am != "0" {
		t.Fatalf("fresh server: selections %q, argmax observations %q", sel, am)
	}
	for _, step := range []struct {
		name, sel, argmax string
		hits, misses      uint64
	}{
		{"miss", "1", "1", 0, 1},
		{"hit", "1", "1", 1, 1},
	} {
		if rec := doJSON(t, s, http.MethodPost, "/api/v1/select", `{"budget":2}`, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s: select = %d: %s", step.name, rec.Code, rec.Body.String())
		}
		if st := s.SelectCacheStats(); st.Hits != step.hits || st.Misses != step.misses {
			t.Fatalf("%s: cache stats %+v, want %d hits, %d misses", step.name, st, step.hits, step.misses)
		}
		if sel, am := scrape(); sel != step.sel || am != step.argmax {
			t.Fatalf("after %s: selections %q, argmax observations %q, want %s and %s", step.name, sel, am, step.sel, step.argmax)
		}
	}
}
