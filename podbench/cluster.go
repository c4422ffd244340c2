package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"podium/internal/client"
	"podium/internal/core"
	"podium/internal/explain"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/server"
	"podium/internal/shard"
)

// cluster is a shard coordinator over a base server, with fanoutShards
// shard servers carved from the base's index by shard.NewPlan, each behind
// a loopback httptest server with one replica (so no hedges). It is the
// fanout workload's system, and the single-node workloads' probe of the
// shard layer.
type cluster struct {
	base    *server.Server
	plan    *shard.Plan
	shards  []*server.Server
	hts     []*httptest.Server
	co      *shard.Coordinator
	rt      *legRT
	shardOf map[string]int // shard server host → shard index
	// planned and opened are when the plan and the shard servers were done.
	planned, opened time.Time

	// Tracing: rp collects replay counts and checks; prefix names the
	// replay spans; refs marks the shapes whose eager reference ran (nil
	// when none should).
	rp     *replayer
	prefix string
	names  map[string]profile.UserID
	refs   map[int]bool
}

func newCluster(base *server.Server, cfg groups.Config, tr *tracer, seed int64) (*cluster, error) {
	global := base.Snapshot().Index()
	plan, err := shard.NewPlan(global, cfg, shard.Options{Shards: fanoutShards, Seed: fanoutRingSeed})
	if err != nil {
		return nil, err
	}
	c := &cluster{base: base, plan: plan, planned: time.Now(), shardOf: map[string]int{},
		rt: &legRT{base: &http.Transport{MaxIdleConnsPerHost: 4}, tr: tr}}
	pinned := cfg
	pinned.FixedBuckets = global.BucketBoundaries()
	var urls []string
	for i, sh := range plan.Shards {
		srv := server.New(fmt.Sprintf("shard-%d", i), sh.Repo, pinned, nil)
		c.shards = append(c.shards, srv)
		ts := httptest.NewServer(&shardHandler{srv: srv, tr: tr})
		c.hts = append(c.hts, ts)
		c.shardOf[ts.Listener.Addr().String()] = i
		urls = append(urls, ts.URL)
	}
	c.opened = time.Now()
	c.co = shard.NewCoordinator(base, urls, shard.CoordinatorOptions{
		HTTPClient: &http.Client{Transport: c.rt},
		Health:     shard.HealthOptions{Seed: seed},
	})
	return c, nil
}

func (c *cluster) close() {
	for _, ts := range c.hts {
		ts.Close()
	}
	c.rt.base.CloseIdleConnections()
}

// traceReplays makes every later replay re-execute the coordinator's merge
// round and render, in spans named prefix.*, and, with reference, run the
// eager and seeded engines on the global instance once per shape.
func (c *cluster) traceReplays(rp *replayer, prefix string, reference bool) {
	c.rp, c.prefix = rp, prefix
	repo := c.base.Snapshot().Repo()
	c.names = make(map[string]profile.UserID, repo.NumUsers())
	for u := 0; u < repo.NumUsers(); u++ {
		c.names[repo.UserName(profile.UserID(u))] = profile.UserID(u)
	}
	if reference {
		c.refs = map[int]bool{}
	}
}

// serve sends one select of s through the coordinator as a span named name
// and returns its latency, the shard legs it made and its span ID.
func (c *cluster) serve(tr *tracer, rec *recorder, name string, s shape) (time.Duration, []leg, int) {
	req := s.body()
	id := tr.reserve(name, 0, 0)
	c.rt.begin(id)
	d := call(c.co, rec, http.MethodPost, s.target(), req)
	end := time.Now()
	legs := c.rt.take()
	tr.fill(id, "", end.Add(-d), end)
	return d, legs, id
}

// servedOK records one coordinator select as an operation of phase: failed
// on a non-2xx response or a failed shard leg.
func servedOK(res *result, phase string, rec *recorder, s shape, legs []leg) bool {
	if !ok2xx(rec.code) {
		res.fail(phase, "select %s -> %d: %.200s", s.body(), rec.code, rec.body.String())
		return false
	}
	for _, l := range legs {
		if l.err != nil || !ok2xx(l.status) {
			res.fail(phase, "shard leg to %s: status %d, %v", l.host, l.status, l.err)
			return false
		}
	}
	res.op(phase, true)
	return true
}

// replay re-executes the coordinator's merge round and render through the
// core, explain and server layers from the shard winners the legs carried,
// and checks the bytes against the served response.
func (c *cluster) replay(i int, legs []leg, served []byte, trace int) {
	s := fanoutShapes[i]
	res, tr := c.rp.res, c.rp.tr
	r, err := resolve(s)
	if err != nil {
		res.fail("replay", "%v", err)
		return
	}
	sort.Slice(legs, func(a, b int) bool { return c.shardOf[legs[a].host] < c.shardOf[legs[b].host] })
	var cands []profile.UserID
	for _, l := range legs {
		var sel client.Selection
		if err := json.Unmarshal(l.body, &sel); err != nil {
			res.fail("replay", "decoding shard leg: %v", err)
			return
		}
		for _, u := range sel.Users {
			cands = append(cands, c.names[u.Name])
		}
	}
	// The coordinator splices its shard reports into the rendered panel;
	// the replay takes them from the served response.
	var resp struct {
		Degraded bool                 `json:"degraded"`
		Shards   []client.ShardReport `json:"shards"`
	}
	if err := json.Unmarshal(served, &resp); err != nil {
		res.fail("replay", "decoding response: %v", err)
		return
	}
	extra := map[string]interface{}{"degraded": resp.Degraded, "shards": resp.Shards}
	sn := c.base.Snapshot()
	p := c.prefix
	root := tr.reserve(p, 0, trace)
	start := time.Now()
	var inst *groups.Instance
	tr.timed(p+".instance", root, trace, func() { inst = groups.NewInstance(sn.Index(), r.ws, r.cs, s.Budget) })
	tr.timed(p+".base_marginals", root, trace, func() { inst.BaseMarginals() })
	var merged *core.Result
	tr.timed(p+".merge", root, trace, func() { merged, err = core.MergeGreedyRule(inst, cands, s.Budget, r.rule, core.Options{}) })
	if err != nil {
		res.fail("replay", "merge: %v", err)
		return
	}
	c.rp.evaluations += int64(merged.Evaluations)
	tr.timed(p+".report", root, trace, func() { explain.NewReport(inst, merged, r.topK) })
	var data []byte
	tr.timed(p+".render", root, trace, func() {
		data, err = sn.RenderSelection(r.ws, r.cs, s.Budget, r.topK, r.rule, merged, extra)
	})
	tr.fill(root, "", start, time.Now())
	res.check(err == nil && bytes.Equal(data, served), "replayed coordinator bytes differ for %s", s.body())
	if c.refs != nil && !c.refs[i] {
		c.refs[i] = true
		c.reference(inst, s, r, trace)
	}
}

// reference runs the eager engine (at parallelism 1 and at NumCPU) and the
// seeded engine (a fresh selector state's sync, then select) on the global
// instance; the shards' own selector states serve only set-up and warm-up.
// Their picks must agree.
func (c *cluster) reference(inst *groups.Instance, s shape, r resolved, trace int) {
	tr := c.rp.tr
	root := tr.reserve("reference", 0, trace)
	start := time.Now()
	var one, par, seeded *core.Result
	var tim core.StageTimings
	tr.timed("reference.greedy", root, trace, func() { one = eager(inst, s.Budget, r.rule, core.Options{Parallelism: 1, Timings: &tim}) })
	tr.timed("reference.greedy_par", root, trace, func() { par = eager(inst, s.Budget, r.rule, core.DefaultParallel()) })
	st := core.NewSelectorStateRule(r.rule)
	tr.timed(c.prefix+".sync", root, trace, func() { st.Sync(inst, nil, false) })
	tr.timed(c.prefix+".engine", root, trace, func() { seeded = st.Select(inst, s.Budget, core.Options{}) })
	tr.fill(root, "", start, time.Now())
	c.rp.stages = append(c.rp.stages, tim)
	c.rp.res.check(one != nil && par != nil && equalInts(ids(par.Users), ids(one.Users)) && equalInts(ids(seeded.Users), ids(one.Users)),
		"eager and seeded engines disagree on the global instance for %s", s.body())
}

// setLegLayer reports the shard hop over the coordinator selects whose
// spans are named selectName: each leg's round trip, each select's fan-out
// wait (first leg sent to last leg done) and the coordinator's own time
// (the select's self time), and the legs' counts.
func setLegLayer(res *result, spans []span, self map[int]time.Duration, selectName string) {
	selects := map[int]bool{}
	for _, s := range spans {
		if s.Name == selectName {
			selects[s.ID] = true
		}
	}
	var legMs, waits, selfMs []float64
	legsOf := map[int][]span{}
	for _, s := range spans {
		if s.Name == "shard.leg" && selects[s.Parent] {
			legMs = append(legMs, ms(s.dur()))
			legsOf[s.Parent] = append(legsOf[s.Parent], s)
		}
	}
	for _, s := range spans {
		if !selects[s.ID] || len(legsOf[s.ID]) == 0 {
			continue
		}
		lo, hi := legsOf[s.ID][0].Start, legsOf[s.ID][0].End
		for _, l := range legsOf[s.ID] {
			lo, hi = min(lo, l.Start), max(hi, l.End)
		}
		waits = append(waits, float64(hi-lo)/1e6)
		selfMs = append(selfMs, ms(self[s.ID]))
	}
	res.setLayerSamples("shard.leg_ms", "ms", legMs, "no shard leg was traced")
	res.setLayerSamples("shard.fanout_wait_ms", "ms", waits, "no shard leg was traced")
	res.setLayerSamples("shard.coordinator_self_ms", "ms", selfMs, "no shard leg was traced")
	if n := res.counts["shard.selects"]; n > 0 {
		res.setLayer("shard.legs_per_select", "count", float64(res.counts["shard.legs"])/float64(n))
	}
	if legs := res.counts["shard.legs"]; legs > 0 {
		res.setLayer("shard.leg_bytes", "count", float64(res.counts["shard.leg_bytes"])/float64(legs))
	}
}
