package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"time"

	"podium/internal/codec"
	"podium/internal/groups"
	"podium/internal/server"
)

// shape-sweep: a closed-loop client requesting many distinct panel shapes
// from an immutable server. Shapes repeat by a Zipf law, so a fixed share
// of requests hits the cache and the rest miss; there are more distinct
// (weights, coverage, budget, rule) combinations than the cache keeps
// selector states, so states are evicted and rebuilt.
const (
	sweepUsers    = 100_000
	sweepRate     = 13  // selects per second of --seconds
	sweepHitShare = 0.2 // share of requests that repeat an earlier shape
	sweepZipf     = 1.0 // Zipf exponent of shape popularity
	sweepFbEvery  = 8   // one shape in sweepFbEvery carries feedback
	sweepFbTop    = 50  // feedback names groups among the largest sweepFbTop
	sweepMaxK     = 32  // budgets are 1..sweepMaxK
	sweepMaxTopK  = 200 // top_k is 1..sweepMaxTopK
	sweepPretty   = 4   // one shape in sweepPretty asks for ?pretty=1
	sweepFbGroups = 3   // priority groups per feedback shape
)

var sweepRules = []string{"", "harmonic", "maxcov", "fairness-floor"}

type sweepWL struct {
	node
	cfg config
	img string
	// shapes are the distinct request shapes; fbRanks[i] names shape i's
	// feedback groups by size rank, resolved to group IDs at open.
	shapes  []shape
	fbRanks [][]int
	seq     []int // request sequence: indexes into shapes
}

func (w *sweepWL) generate(dir string) error {
	repo := population(sweepUsers)
	w.img = filepath.Join(dir, "sweep.img")
	if err := codec.WriteImageFile(w.img, repo); err != nil {
		return err
	}
	w.shapes, w.fbRanks, w.seq = sweepSequence(w.cfg.seed, w.cfg.seconds*sweepRate)
	return nil
}

// sweepSequence draws the distinct shapes and the request sequence. Budgets
// are stratified over 1..sweepMaxK and the other factors rotate evenly
// through them, so every seed sees the same mix of costs; request counts
// follow Zipf weights over the shapes' popularity ranks, so the number of
// repeats (cache hits) is the same for every seed.
func sweepSequence(seed int64, n int) ([]shape, [][]int, []int) {
	rng := rand.New(rand.NewSource(seed*104729 + 3))
	distinct := n - int(float64(n)*sweepHitShare+0.5)
	shapes := make([]shape, 0, distinct)
	fbRanks := make([][]int, 0, distinct)
	seen := map[string]bool{}
	// Budgets rise with i; every other factor comes from a cell of a full
	// factorial design (rule slot × weights × coverage), visited in a seeded
	// order that repeats every len(cells) shapes. Each cell so recurs evenly
	// across the budget range, and every seed requests the same mix of
	// rules, schemes and budgets: the seed moves order and pairings, not
	// the cost mix. One rule slot in sweepFbEvery is the feedback slot,
	// which refines the default coverage rule.
	type cell struct{ slot, weights, coverage int }
	var cells []cell
	for slot := 0; slot < sweepFbEvery; slot++ {
		for wi := 0; wi < 2; wi++ {
			for ci := 0; ci < 2; ci++ {
				cells = append(cells, cell{slot, wi, ci})
			}
		}
	}
	order := rng.Perm(len(cells))
	prettyOff := rng.Intn(sweepPretty)
	for i := 0; i < distinct; i++ {
		c := cells[order[i%len(cells)]]
		s := shape{
			Budget: 1 + int((float64(i)+rng.Float64())*sweepMaxK/float64(distinct)),
			Rule:   sweepRules[c.slot%len(sweepRules)],
			// Rotates by one position every round of cells, so each cell
			// asks for the pretty shape once in sweepPretty rounds.
			pretty: (i+i/len(cells)+prettyOff)%sweepPretty == 0,
		}
		if c.weights == 1 {
			s.Weights = "iden"
		}
		if c.coverage == 1 {
			s.Coverage = "prop"
		}
		var ranks []int
		if c.slot == 0 {
			ranks = rng.Perm(sweepFbTop)[:sweepFbGroups]
			s.priority = ranks // placeholder until open resolves group IDs
		}
		for {
			s.TopK = 1 + rng.Intn(sweepMaxTopK)
			if k := s.key(); !seen[k] {
				seen[k] = true
				break
			}
		}
		shapes = append(shapes, s)
		fbRanks = append(fbRanks, ranks)
	}
	rng.Shuffle(distinct, func(a, b int) {
		shapes[a], shapes[b] = shapes[b], shapes[a]
		fbRanks[a], fbRanks[b] = fbRanks[b], fbRanks[a]
	})
	// Popularity: shape order is now random, so rank i is shapes[i].
	// Every shape is requested once; the n-distinct repeats go to ranks in
	// proportion to Zipf weights (largest remainders first).
	w := make([]float64, distinct)
	var total float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), sweepZipf)
		total += w[i]
	}
	extra := n - distinct
	counts := make([]int, distinct)
	given := 0
	for i := range counts {
		counts[i] = int(float64(extra) * w[i] / total)
		given += counts[i]
	}
	for i := 0; given < extra; i++ {
		counts[i%distinct]++
		given++
	}
	var seq []int
	for i, c := range counts {
		for j := 0; j <= c; j++ {
			seq = append(seq, i)
		}
	}
	rng.Shuffle(len(seq), func(a, b int) { seq[a], seq[b] = seq[b], seq[a] })
	return shapes, fbRanks, seq
}

func (w *sweepWL) open(tr *tracer) (float64, error) {
	w.tr, w.rp = tr, nil
	start := time.Now()
	repo, err := codec.ReadImageFile(w.img)
	if err != nil {
		return 0, err
	}
	loaded := time.Now()
	w.srv = server.New("bench", repo, groups.Config{K: 3}, nil)
	w.h = w.srv
	opened := time.Now()
	if err := w.resolveFeedback(); err != nil {
		return 0, err
	}
	w.selectOp(setupShape, "setup")
	setup := time.Since(start).Seconds()
	if tr != nil {
		tr.add("codec.image_load", "", 0, 0, start, loaded)
		tr.add("server.open", "", 0, 0, loaded, opened)
		t0 := time.Now()
		groups.Build(repo, groups.Config{K: 3})
		tr.add("groups.build", "", 0, 0, t0, time.Now())
		w.rp = newReplayer(tr, w.res)
	}
	return setup, nil
}

// resolveFeedback reads the largest groups through GET /api/v1/groups and
// turns each feedback shape's size ranks into group IDs.
func (w *sweepWL) resolveFeedback() error {
	call(w.srv, w.rec, http.MethodGet, fmt.Sprintf("/api/v1/groups?limit=%d", sweepFbTop), nil)
	if !ok2xx(w.rec.code) {
		w.res.fail("setup", "GET /api/v1/groups -> %d", w.rec.code)
		return fmt.Errorf("listing groups: HTTP %d", w.rec.code)
	}
	w.res.op("setup", true)
	var gs []struct {
		ID int `json:"id"`
	}
	if err := json.Unmarshal(w.rec.body.Bytes(), &gs); err != nil {
		return fmt.Errorf("listing groups: %w", err)
	}
	if len(gs) < sweepFbTop {
		return fmt.Errorf("listing groups: %d groups, want %d", len(gs), sweepFbTop)
	}
	for i, ranks := range w.fbRanks {
		if ranks == nil {
			continue
		}
		ids := make([]int, len(ranks))
		for j, r := range ranks {
			ids[j] = gs[r].ID
		}
		w.shapes[i].priority = ids
	}
	return nil
}

// warmup has nothing to do: every request of the sequence is part of the
// measurement.
func (w *sweepWL) warmup() {}

func (w *sweepWL) measure() measurement {
	m := startMeasure()
	before := w.srv.SelectCacheStats()
	for _, i := range w.seq {
		m.selMs = append(m.selMs, w.selectOp(w.shapes[i], "measure"))
		m.respBytes += int64(w.rec.body.Len())
	}
	m.finish()
	w.res.setCacheLayer(before, w.srv.SelectCacheStats())
	return m
}

// verify checks every distinct feedback-free shape's served picks against
// the eager engine on the snapshot's own instance.
func (w *sweepWL) verify() float64 {
	var ratios []float64
	sn := w.srv.Snapshot()
	for _, s := range w.shapes {
		if s.priority != nil {
			continue
		}
		call(w.srv, w.rec, http.MethodPost, s.target(), s.body())
		if !ok2xx(w.rec.code) {
			w.res.fail("verify", "select %s -> %d", s.body(), w.rec.code)
			continue
		}
		ratios = append(ratios, servedRatio(sn, s, w.rec.body.Bytes(), w.res))
	}
	return mean(ratios)
}

func (w *sweepWL) close() error {
	w.srv, w.h = nil, nil
	return nil
}

// probe times the layers shape-sweep's sequence does not reach: the log
// replay, the write path and the shard layer, on the server's population.
// The sweep leaves the server's cache and the replay's selector states
// holding over a GB; the probes run over a fresh server of the same
// repository once they are released and returned to the OS, so they do not
// raise the run's peak memory.
func (w *sweepWL) probe(dir string) error {
	repo := w.srv.Snapshot().Repo()
	w.srv, w.h = nil, nil
	w.rp.states, w.rp.pending = nil, nil
	debug.FreeOSMemory()
	srv := server.New("probe", repo, groups.Config{K: 3}, nil)
	if err := probeLogReplay(repo, dir, w.tr, w.res); err != nil {
		return err
	}
	if err := probeWrites(srv.Snapshot(), dir, w.cfg.seed, w.tr, w.res); err != nil {
		return err
	}
	return probeShard(srv, w.cfg.seed, w.tr, w.res)
}

func (w *sweepWL) layers(spans []span, self map[int]time.Duration) {
	res := w.res
	w.node.layers(spans, self)
	load, _ := byName(spans, self, "codec.image_load", "")
	res.setLayerSamples("codec.image_load_s", "s", scale(load, 1e-3), "")
	setWriteLayer(res, spans, self)
	setShardProbeLayer(res, spans, self)
}
