package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"podium/internal/core"
	"podium/internal/explain"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/server"
)

// shape is one select request shape.
type shape struct {
	Weights  string `json:"weights,omitempty"`
	Coverage string `json:"coverage,omitempty"`
	Rule     string `json:"rule,omitempty"`
	Budget   int    `json:"budget"`
	TopK     int    `json:"top_k,omitempty"`
	pretty   bool
	// priority holds feedback group IDs (nil for a feedback-free request).
	priority []int
}

func (s shape) target() string {
	if s.pretty {
		return "/api/v1/select?pretty=1"
	}
	return "/api/v1/select"
}

func (s shape) body() []byte {
	req := struct {
		shape
		Feedback *server.FeedbackJSON `json:"feedback,omitempty"`
	}{shape: s}
	if s.priority != nil {
		req.Feedback = &server.FeedbackJSON{Priority: s.priority}
	}
	data, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain struct of strings and ints
	}
	return data
}

// key identifies a distinct request (what the select cache keys an entry on).
func (s shape) key() string {
	return fmt.Sprintf("%s|%t|%v", s.body(), s.pretty, s.priority)
}

// stateKey identifies the selector state a request uses.
func (s shape) stateKey() string {
	return fmt.Sprintf("%s|%s|%d|%s", s.Weights, s.Coverage, s.Budget, s.Rule)
}

// resolved is a shape parsed into the core's terms.
type resolved struct {
	ws   groups.WeightScheme
	cs   groups.CoverageScheme
	rule *core.Rule
	topK int
	fb   *core.Feedback
}

func resolve(s shape) (resolved, error) {
	ws, err := server.ParseWeights(s.Weights)
	if err != nil {
		return resolved{}, err
	}
	cs, err := server.ParseCoverage(s.Coverage)
	if err != nil {
		return resolved{}, err
	}
	rl, err := server.ParseRule(s.Rule)
	if err != nil {
		return resolved{}, err
	}
	r := resolved{ws: ws, cs: cs, rule: rl, topK: s.TopK}
	if r.topK <= 0 {
		r.topK = 200
	}
	if s.priority != nil {
		fb := core.Feedback{}
		for _, id := range s.priority {
			fb.Priority = append(fb.Priority, groups.GroupID(id))
		}
		r.fb = &fb
	}
	return r, nil
}

// node drives one single-node server in-process: it serves each select,
// classifies it from the cache counters around it and, when tracing,
// replays it if it missed.
type node struct {
	srv *server.Server
	h   http.Handler // srv, or the mutable server wrapping it
	rec *recorder
	tr  *tracer
	rp  *replayer
	res *result
}

// selectOp serves one select and returns its latency in ms.
func (n *node) selectOp(s shape, phase string) float64 {
	before := n.srv.SelectCacheStats()
	sn := n.srv.Snapshot()
	req := s.body()
	id := n.tr.reserve("select", 0, 0)
	d := call(n.h, n.rec, http.MethodPost, s.target(), req)
	end := time.Now()
	after := n.srv.SelectCacheStats()
	kind := classify(before, after)
	n.tr.fill(id, kind, end.Add(-d), end)
	if !ok2xx(n.rec.code) {
		n.res.fail(phase, "select %s -> %d: %.200s", req, n.rec.code, n.rec.body.String())
		return ms(d)
	}
	n.res.op(phase, true)
	if n.rp != nil && kind == kindMiss {
		n.rp.miss(sn, s, n.rec.body.Bytes(), id, after.Recomputes > before.Recomputes)
	}
	return ms(d)
}

// layers reports the per-layer metrics a single node's spans carry.
func (n *node) layers(spans []span, self map[int]time.Duration) {
	d := func(name, tag string) []float64 { v, _ := byName(spans, self, name, tag); return v }
	n.res.setLayerSamples("server.hit_us", "us", scale(d("select", kindHit), 1000), "no select hit the cache")
	n.res.setLayerSamples("server.miss_ms", "ms", d("select", kindMiss), "no select missed the cache")
	n.res.setLayerSamples("server.open_s", "s", scale(d("server.open", ""), 1e-3), "")
	n.res.setLayerSamples("groups.build_s", "s", scale(d("groups.build", ""), 1e-3), "")
	n.rp.setReplayLayer(spans, self, "no select missed the cache")
}

func scale(xs []float64, f float64) []float64 {
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

// replayer re-executes the stages of a select that missed through the
// layers' public calls, on the snapshot the server answered from, each stage
// in its own span. The server's selector states cannot be read from
// outside, so the replayer keeps its own SelectorState per state key and
// syncs it with the users the benchmark itself wrote since that state's last
// sync (a superset of what the server's change records name); it recomputes
// exactly when the server's recompute counter moved.
type replayer struct {
	tr      *tracer
	res     *result
	states  map[string]*core.SelectorState
	pending map[string][]profile.UserID
	refDone map[string]bool

	evaluations int64
	stages      []core.StageTimings
	selfChecks  int
}

func newReplayer(tr *tracer, res *result) *replayer {
	return &replayer{tr: tr, res: res, states: map[string]*core.SelectorState{},
		pending: map[string][]profile.UserID{}, refDone: map[string]bool{}}
}

// noteWrite records a user the benchmark changed, for every state's next
// repair.
func (rp *replayer) noteWrite(u profile.UserID) {
	for k := range rp.states {
		rp.pending[k] = append(rp.pending[k], u)
	}
}

// miss replays one missed select. served is the response body the server
// wrote; recomputed reports whether the server's state recomputed instead of
// repairing. It verifies that the replay produces the served bytes
// (feedback requests: the served picks, since their response carries
// feedback scores no public render call produces).
func (rp *replayer) miss(sn *server.Snapshot, s shape, served []byte, trace int, recomputed bool) {
	r, err := resolve(s)
	if err != nil {
		rp.res.fail("replay", "%v", err)
		return
	}
	tr := rp.tr
	root := tr.reserve("replay", 0, trace)
	start := time.Now()
	var inst *groups.Instance
	tr.timed("replay.instance", root, trace, func() { inst = groups.NewInstance(sn.Index(), r.ws, r.cs, s.Budget) })
	tr.timed("replay.base_marginals", root, trace, func() { inst.BaseMarginals() })
	sk := s.stateKey()
	st := rp.states[sk]
	if st == nil {
		st = core.NewSelectorStateRule(r.rule)
		rp.states[sk] = st
	}
	tr.timed("replay.sync", root, trace, func() { st.Sync(inst, rp.pending[sk], recomputed) })
	rp.pending[sk] = nil
	var res *core.Result
	var engErr error
	tr.timed("replay.engine", root, trace, func() {
		if r.fb == nil {
			res = st.Select(inst, s.Budget, core.Options{})
			return
		}
		var c *core.CustomResult
		if c, engErr = core.GreedyCustomOpts(inst, *r.fb, s.Budget, core.Options{}); engErr == nil {
			res = c.Result
		}
	})
	if engErr != nil {
		rp.res.fail("replay", "engine: %v", engErr)
		return
	}
	if r.fb == nil {
		rp.evaluations += int64(res.Evaluations)
	}
	tr.timed("replay.report", root, trace, func() { explain.NewReport(inst, res, r.topK) })
	var data []byte
	tr.timed("replay.render", root, trace, func() {
		data, err = sn.RenderSelection(r.ws, r.cs, s.Budget, r.topK, r.rule, res, nil)
	})
	tr.fill(root, "", start, time.Now())
	if err != nil {
		rp.res.fail("replay", "render: %v", err)
		return
	}
	if r.fb != nil {
		got, err := userIDs(served)
		rp.res.check(err == nil && equalInts(got, ids(res.Users)), "replayed feedback picks differ for %s", s.body())
	} else {
		rp.res.check(bytes.Equal(rendered(data, s.pretty), served), "replayed bytes differ for %s%s", s.target(), s.body())
	}
	rp.reference(sn, inst, s, r, res, trace)
}

// reference runs the eager engine on the same instance at parallelism 1
// and at NumCPU, once per snapshot and state key: the reference the miss
// path is measured against. Feedback-free picks must equal the replay's.
func (rp *replayer) reference(sn *server.Snapshot, inst *groups.Instance, s shape, r resolved, res *core.Result, trace int) {
	k := fmt.Sprintf("%d|%s", sn.Epoch(), s.stateKey())
	if rp.refDone[k] || r.fb != nil {
		return
	}
	rp.refDone[k] = true
	root := rp.tr.reserve("reference", 0, trace)
	start := time.Now()
	var one, par *core.Result
	var tim core.StageTimings
	rp.tr.timed("reference.greedy", root, trace, func() { one = eager(inst, s.Budget, r.rule, core.Options{Parallelism: 1, Timings: &tim}) })
	rp.tr.timed("reference.greedy_par", root, trace, func() {
		par = eager(inst, s.Budget, r.rule, core.Options{Parallelism: runtime.NumCPU()})
	})
	rp.tr.fill(root, "", start, time.Now())
	rp.stages = append(rp.stages, tim)
	rp.res.check(one != nil && par != nil && equalInts(ids(one.Users), ids(res.Users)) && equalInts(ids(par.Users), ids(res.Users)),
		"eager reference picks differ from the replayed miss path for %s", s.body())
}

// eager runs the eager greedy engine under rule rl (nil on error).
func eager(inst *groups.Instance, budget int, rl *core.Rule, opt core.Options) *core.Result {
	if rl.IsDefault() {
		return core.GreedyOpts(inst, budget, opt)
	}
	res, err := core.GreedyRule(inst, budget, rl, opt)
	if err != nil {
		return nil
	}
	return res
}

// rendered turns RenderSelection's compact bytes into the bytes the select
// handler writes for the same request: indented for ?pretty=1, newline
// terminated.
func rendered(compact []byte, pretty bool) []byte {
	if !pretty {
		return append(append([]byte(nil), compact...), '\n')
	}
	var b bytes.Buffer
	if err := json.Indent(&b, compact, "", "  "); err != nil {
		return nil
	}
	b.WriteByte('\n')
	return b.Bytes()
}

func ids(us []profile.UserID) []int {
	out := make([]int, len(us))
	for i, u := range us {
		out[i] = int(u)
	}
	return out
}

// setReplayLayer reports the per-layer metrics the replay spans carry.
func (rp *replayer) setReplayLayer(spans []span, self map[int]time.Duration, bypassed string) {
	res := rp.res
	d := func(name string) []float64 { v, _ := byName(spans, self, name, ""); return v }
	res.setLayerSamples("groups.instance_ms", "ms", d("replay.instance"), bypassed)
	res.setLayerSamples("groups.base_marginals_ms", "ms", d("replay.base_marginals"), bypassed)
	res.setLayerSamples("core.sync_ms", "ms", d("replay.sync"), bypassed)
	res.setLayerSamples("core.seeded_select_ms", "ms", d("replay.engine"), bypassed)
	res.setLayerSamples("explain.report_ms", "ms", d("replay.report"), bypassed)
	res.setLayerSamples("server.render_ms", "ms", d("replay.render"), bypassed)
	rp.setReferenceLayer(spans, self)
	res.setLayer("core.evaluations", "count", float64(rp.evaluations))
	res.counts["core.evaluations"] = rp.evaluations
}

// setReferenceLayer reports the eager reference and its stage clock.
func (rp *replayer) setReferenceLayer(spans []span, self map[int]time.Duration) {
	res := rp.res
	d := func(name string) []float64 { v, _ := byName(spans, self, name, ""); return v }
	res.setLayerSamples("core.greedy_ms", "ms", d("reference.greedy"), "no select was replayed")
	res.setLayerSamples("core.greedy_par_ms", "ms", d("reference.greedy_par"), "no select was replayed")
	var init, argmax, retract []float64
	for _, t := range rp.stages {
		if t.Runs == 0 {
			continue
		}
		init = append(init, float64(t.InitNs)/1e6/float64(t.Runs))
		argmax = append(argmax, float64(t.ArgmaxNs)/1e6/float64(t.Runs))
		retract = append(retract, float64(t.RetractNs)/1e6/float64(t.Runs))
	}
	const why = "the engine reported no stage timings (Runs == 0) on every replayed rule"
	res.setLayerSamples("core.init_ms", "ms", init, why)
	res.setLayerSamples("core.argmax_ms", "ms", argmax, why)
	res.setLayerSamples("core.retract_ms", "ms", retract, why)
}

// servedRatio checks a feedback-free served panel against the eager engine
// on the snapshot's instance and returns the ratio of their scores (1 when
// the picks agree).
func servedRatio(sn *server.Snapshot, s shape, served []byte, res *result) float64 {
	r, err := resolve(s)
	if err != nil {
		res.fail("verify", "%v", err)
		return 0
	}
	got, err := userIDs(served)
	if err != nil {
		res.fail("verify", "decoding %s: %v", s.body(), err)
		return 0
	}
	inst := sn.Instance(r.ws, r.cs, s.Budget)
	exact := eager(inst, s.Budget, r.rule, core.Options{})
	if exact == nil {
		res.fail("verify", "exact greedy failed for %s", s.body())
		return 0
	}
	res.check(equalInts(got, ids(exact.Users)), "served picks differ from the eager engine for %s", s.body())
	panel := make([]profile.UserID, len(got))
	for i, u := range got {
		panel[i] = profile.UserID(u)
	}
	return inst.Score(panel) / inst.Score(exact.Users)
}
