package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"podium/internal/codec"
	"podium/internal/core"
	"podium/internal/groups"
	"podium/internal/server"
)

// fanout: a closed-loop client selecting through a shard coordinator over
// two shard servers on loopback sockets (one replica each, so no hedges;
// no faults). The shard caches are warm before timing, so every select's
// work is the legs' round trips, the coordinator's decode, merge and render.
const (
	fanoutUsers  = 100_000
	fanoutShards = 2
	fanoutRate   = 9 // selects per second of --seconds
	// fanoutRuleEvery: one select in fanoutRuleEvery uses the non-default
	// rule, at a seeded position within each block.
	fanoutRuleEvery = 4
	// fanoutRingSeed keys the consistent-hash ring. Like the population it
	// is fixed: the partition decides the merged panel and so the coverage
	// ratio, which should move with the code, not with --seed.
	fanoutRingSeed = 1
)

var fanoutShapes = []shape{{Budget: 8}, {Budget: 8, Rule: "harmonic"}}

type fanoutWL struct {
	*cluster
	cfg config
	res *result
	tr  *tracer
	rp  *replayer // the traced pass's; outlives the cluster for layers
	img string
	seq []int
	rec *recorder
}

func (w *fanoutWL) generate(dir string) error {
	repo := population(fanoutUsers)
	w.img = filepath.Join(dir, "fanout.img")
	if err := codec.WriteImageFile(w.img, repo); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(w.cfg.seed*15485863 + 5))
	n := w.cfg.seconds * fanoutRate
	for len(w.seq) < n {
		at := rng.Intn(fanoutRuleEvery)
		for j := 0; j < fanoutRuleEvery && len(w.seq) < n; j++ {
			if j == at {
				w.seq = append(w.seq, 1)
			} else {
				w.seq = append(w.seq, 0)
			}
		}
	}
	return nil
}

func (w *fanoutWL) open(tr *tracer) (float64, error) {
	w.tr, w.rp = tr, nil
	cfg := groups.Config{K: 3}
	start := time.Now()
	repo, err := codec.ReadImageFile(w.img)
	if err != nil {
		return 0, err
	}
	loaded := time.Now()
	base := server.New("coordinator", repo, cfg, nil)
	baseOpened := time.Now()
	if w.cluster, err = newCluster(base, cfg, tr, w.cfg.seed); err != nil {
		return 0, err
	}
	w.selectOp(0, "setup")
	setup := time.Since(start).Seconds()
	if tr != nil {
		tr.add("codec.image_load", "", 0, 0, start, loaded)
		// server.open covers the coordinator's and both shards' server.New
		// (the shards' with their loopback listeners).
		tr.add("server.open", "", 0, 0, start, start.Add(baseOpened.Sub(loaded)+w.opened.Sub(w.planned)))
		tr.add("shard.plan", "", 0, 0, baseOpened, w.planned)
		t0 := time.Now()
		groups.Build(repo, cfg)
		tr.add("groups.build", "", 0, 0, t0, time.Now())
		w.rp = newReplayer(tr, w.res)
		w.traceReplays(w.rp, "replay", true)
	}
	return setup, nil
}

// selectOp serves one coordinator select and returns its latency in ms and
// the shard legs it made.
func (w *fanoutWL) selectOp(i int, phase string) (float64, []leg) {
	s := fanoutShapes[i]
	d, legs, id := w.serve(w.tr, w.rec, "select", s)
	if servedOK(w.res, phase, w.rec, s, legs) && w.rp != nil && phase == "measure" {
		w.replay(i, legs, w.rec.body.Bytes(), id)
	}
	return ms(d), legs
}

func (w *fanoutWL) warmup() {
	for i := range fanoutShapes {
		w.selectOp(i, "warmup")
	}
}

func (w *fanoutWL) shardStats() server.SelectCacheStats {
	var t server.SelectCacheStats
	for _, s := range w.shards {
		t = addStats(t, s.SelectCacheStats())
	}
	return t
}

func (w *fanoutWL) measure() measurement {
	m := startMeasure()
	before := w.shardStats()
	var legs, legBytes int64
	for _, i := range w.seq {
		d, ls := w.selectOp(i, "measure")
		m.selMs = append(m.selMs, d)
		m.respBytes += int64(w.rec.body.Len())
		legs += int64(len(ls))
		for _, l := range ls {
			legBytes += l.bytes
		}
	}
	m.finish()
	w.res.setCacheLayer(before, w.shardStats())
	w.res.counts["shard.selects"] = int64(len(w.seq))
	w.res.counts["shard.legs"] = legs
	w.res.counts["shard.leg_bytes"] = legBytes
	return m
}

// verify checks each shape's merged picks against the in-process two-round
// plan on the same partition, and returns the mean ratio of the merged
// panel's score to exact single-node greedy on the global instance.
func (w *fanoutWL) verify() float64 {
	var ratios []float64
	sn := w.base.Snapshot()
	for i, s := range fanoutShapes {
		w.selectOp(i, "verify")
		got, err := userIDs(w.rec.body.Bytes())
		r, rerr := resolve(s)
		if err != nil || rerr != nil {
			w.res.fail("verify", "decoding %s: %v %v", s.body(), err, rerr)
			continue
		}
		want, err := w.plan.SelectRule(r.ws, r.cs, s.Budget, r.rule, core.Options{})
		if err != nil {
			w.res.fail("verify", "plan select: %v", err)
			continue
		}
		w.res.check(equalInts(got, ids(want.Merged.Users)), "coordinator picks differ from the in-process plan for %s", s.body())
		inst := sn.Instance(r.ws, r.cs, s.Budget)
		exact := eager(inst, s.Budget, r.rule, core.Options{})
		if exact == nil {
			w.res.fail("verify", "exact greedy failed for %s", s.body())
			continue
		}
		ratios = append(ratios, inst.Score(want.Merged.Users)/inst.Score(exact.Users))
	}
	return mean(ratios)
}

// probe times the layers fanout's sequence does not reach: the log replay
// and the write path, on the coordinator's population.
func (w *fanoutWL) probe(dir string) error {
	sn := w.base.Snapshot()
	if err := probeLogReplay(sn.Repo(), dir, w.tr, w.res); err != nil {
		return err
	}
	return probeWrites(sn, dir, w.cfg.seed, w.tr, w.res)
}

func (w *fanoutWL) close() error {
	if w.cluster != nil {
		w.cluster.close()
		w.cluster = nil
	}
	return nil
}

func (w *fanoutWL) layers(spans []span, self map[int]time.Duration) {
	res := w.res
	d := func(name, tag string) []float64 { v, _ := byName(spans, self, name, tag); return v }
	res.setLayerSamples("server.hit_us", "us", scale(d("shard.serve", kindHit), 1000), "no shard select hit its cache")
	res.setLayerSamples("server.miss_ms", "ms", d("shard.serve", kindMiss), "no shard select missed its cache")
	res.setLayerSamples("server.open_s", "s", scale(d("server.open", ""), 1e-3), "")
	res.setLayerSamples("codec.image_load_s", "s", scale(d("codec.image_load", ""), 1e-3), "")
	res.setLayerSamples("groups.build_s", "s", scale(d("groups.build", ""), 1e-3), "")
	res.setLayerSamples("shard.plan_s", "s", scale(d("shard.plan", ""), 1e-3), "")
	// The shards' selector states serve only set-up and warm-up, so
	// core.sync_ms and core.seeded_select_ms time a fresh state on the
	// global instance, once per shape.
	w.rp.setReplayLayer(spans, self, "no select was replayed")
	res.setLayerSamples("core.merge_ms", "ms", d("replay.merge", ""), "no select was replayed")
	setLegLayer(res, spans, self, "select")
	setWriteLayer(res, spans, self)
}

// leg is one coordinator→shard select round trip, from the request leaving
// the coordinator's client to the last response byte read.
type leg struct {
	host       string
	start, end time.Time
	bytes      int64
	status     int
	err        error
	body       []byte // captured only when tracing
}

// legRT is the coordinator's transport: it times and counts every select
// leg, and when tracing records each as a span under the current select and
// tags the request so the shard handler can parent its own span to it.
type legRT struct {
	base   *http.Transport
	tr     *tracer
	parent atomic.Int64
	mu     sync.Mutex
	legs   []leg
}

const legHeader = "X-Podbench-Leg"

func (t *legRT) begin(parent int) {
	t.parent.Store(int64(parent))
	t.mu.Lock()
	t.legs = t.legs[:0]
	t.mu.Unlock()
}

func (t *legRT) take() []leg {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]leg(nil), t.legs...)
}

func (t *legRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/api/v1/select" {
		return t.base.RoundTrip(req)
	}
	l := leg{host: req.URL.Host}
	parent := int(t.parent.Load())
	id := t.tr.reserve("shard.leg", parent, parent)
	if t.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(legHeader, fmt.Sprintf("%d %d", id, parent))
	}
	l.start = time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		l.end, l.err = time.Now(), err
		t.record(l, id)
		return nil, err
	}
	l.status = resp.StatusCode
	resp.Body = &legBody{ReadCloser: resp.Body, rt: t, l: l, id: id, capture: t.tr != nil}
	return resp, nil
}

func (t *legRT) record(l leg, id int) {
	t.tr.fill(id, "", l.start, l.end)
	t.mu.Lock()
	t.legs = append(t.legs, l)
	t.mu.Unlock()
}

// legBody counts (and when tracing keeps) a leg's response bytes and ends
// the leg at EOF or Close, whichever comes first.
type legBody struct {
	io.ReadCloser
	rt      *legRT
	l       leg
	id      int
	capture bool
	buf     bytes.Buffer
	done    bool
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.l.bytes += int64(n)
	if b.capture {
		b.buf.Write(p[:n])
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *legBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *legBody) finish() {
	if b.done {
		return
	}
	b.done = true
	b.l.end = time.Now()
	if b.capture {
		b.l.body = b.buf.Bytes()
	}
	b.rt.record(b.l, b.id)
}

// shardHandler fronts one shard server; when tracing it records each select
// as a span under the leg that carried it, tagged hit or miss from the
// shard's cache counters.
type shardHandler struct {
	srv *server.Server
	tr  *tracer
}

func (h *shardHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil || r.URL.Path != "/api/v1/select" {
		h.srv.ServeHTTP(w, r)
		return
	}
	var parent, trace int
	fmt.Sscan(r.Header.Get(legHeader), &parent, &trace)
	before := h.srv.SelectCacheStats()
	start := time.Now()
	h.srv.ServeHTTP(w, r)
	end := time.Now()
	h.tr.add("shard.serve", classify(before, h.srv.SelectCacheStats()), parent, trace, start, end)
}
