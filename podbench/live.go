package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"podium/internal/bucketing"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/repolog"
	"podium/internal/server"
)

// live-writes: a closed-loop dashboard client cycling a few select shapes on
// a mutable server, with one acknowledged write after every liveWriteEvery
// selects. A write signs a user up or moves one of a user's scores to the
// far end of [0, 1]; either almost always moves the user between groups, so
// the next select of each shape misses the watermark cache and repairs its
// selector state.
const (
	liveUsers      = 50_000
	liveRate       = 34 // selects per second of --seconds
	liveWriteEvery = 15
	// liveSignupsPerBlock of every liveSignupBlock writes are sign-ups (15%).
	liveSignupBlock     = 20
	liveSignupsPerBlock = 3
	liveSignupTags      = 4
)

var liveShapes = []shape{
	{Budget: 8},
	{Budget: 8, pretty: true},
	{Budget: 8, Rule: "harmonic"},
	{Budget: 8, Coverage: "prop"},
	{Budget: 12},
}

// liveOp is one step of the sequence: a select of liveShapes[shape], or
// (shape < 0) a write of body to path.
type liveOp struct {
	shape  int
	path   string
	body   []byte
	user   profile.UserID // score update target; -1 for a sign-up
	label  string
	score  float64
	name   string
	signup map[string]float64
}

type liveWL struct {
	node
	cfg  config
	log  string // the seeded repository log, never opened by the server
	ops  []liveOp
	ms   *server.MutableServer
	runs int
	dir  string // this open's copy of the log
	// shadow is an empty log in the server's directory: the traced pass
	// times the write path's log append + sync on it.
	shadow *repolog.Log
}

func (w *liveWL) generate(dir string) error {
	repo := population(liveUsers)
	w.log = filepath.Join(dir, "live.plog")
	l, err := repolog.Open(w.log)
	if err != nil {
		return err
	}
	if err := l.CompactWith(repo); err != nil {
		l.Close()
		return err
	}
	if err := l.Close(); err != nil {
		return err
	}
	w.ops = liveSequence(repo, w.cfg.seed, w.cfg.seconds*liveRate)
	return nil
}

// liveSequence builds the seeded operation sequence over repo: selects cycle
// liveShapes, and after every liveWriteEvery selects comes one write. Writes
// come in blocks of liveSignupBlock with liveSignupsPerBlock sign-ups (over
// catalog labels) at seeded positions; the rest are score updates that move
// one of a user's scores into another bucket of that property, under the
// index a server builds from this population at boot. So every write moves
// a user between groups and invalidates every cached shape, and every seed
// runs the same number of misses and sign-ups.
func liveSequence(repo *profile.Repository, seed int64, selects int) []liveOp {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	ix := groups.Build(repo, groups.Config{K: 3})
	labels := repo.Catalog().Labels()
	scores := map[[2]int]float64{} // (user, property) → score after earlier writes
	var ops []liveOp
	var signupSlots []int
	writes := 0
	for i := 0; i < selects; i++ {
		ops = append(ops, liveOp{shape: i % len(liveShapes)})
		if i%liveWriteEvery != liveWriteEvery-1 {
			continue
		}
		slot := writes % liveSignupBlock
		if slot == 0 {
			signupSlots = rng.Perm(liveSignupBlock)[:liveSignupsPerBlock]
		}
		writes++
		if slices.Contains(signupSlots, slot) {
			ops = append(ops, liveSignup(rng, labels, fmt.Sprintf("bench-%d-%d", seed, writes)))
		} else {
			ops = append(ops, liveMove(rng, repo, ix, scores))
		}
	}
	return ops
}

func liveSignup(rng *rand.Rand, labels []string, name string) liveOp {
	op := liveOp{shape: -1, user: -1, path: "/api/v1/users", name: name, signup: map[string]float64{}}
	for _, i := range rng.Perm(len(labels))[:liveSignupTags] {
		op.signup[labels[i]] = float64(rng.Intn(1001)) / 1000
	}
	op.body, _ = json.Marshal(map[string]interface{}{"name": op.name, "properties": op.signup})
	return op
}

// liveMove draws a user and one of its properties with at least two buckets
// and sets the score to the middle of the bucket farthest from the current
// one.
func liveMove(rng *rand.Rand, repo *profile.Repository, ix *groups.Index, scores map[[2]int]float64) liveOp {
	for {
		u := profile.UserID(rng.Intn(repo.NumUsers()))
		props := repo.Profile(u).Properties()
		if len(props) == 0 {
			continue
		}
		p := props[rng.Intn(len(props))]
		bs := ix.Buckets(p)
		if len(bs) < 2 {
			continue
		}
		key := [2]int{int(u), int(p)}
		cur, ok := scores[key]
		if !ok {
			cur, _ = repo.Profile(u).Score(p)
		}
		far := bs[0]
		if bucketing.Assign(bs, cur) == 0 {
			far = bs[len(bs)-1]
		}
		score := (far.Lo + far.Hi) / 2
		scores[key] = score
		op := liveOp{shape: -1, user: u, path: "/api/v1/scores", label: repo.Catalog().Label(p), score: score}
		op.body, _ = json.Marshal(map[string]interface{}{"user": int(u), "label": op.label, "score": score})
		return op
	}
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// open copies the seeded log into a fresh directory (untimed), then times
// the server's log replay and index build up to the first served select.
func (w *liveWL) open(tr *tracer) (float64, error) {
	w.runs++
	w.tr, w.rp = tr, nil
	w.dir = filepath.Join(filepath.Dir(w.log), fmt.Sprintf("live-open-%d", w.runs))
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return 0, err
	}
	logPath := filepath.Join(w.dir, "repo.plog")
	if err := copyFile(logPath, w.log); err != nil {
		return 0, err
	}
	start := time.Now()
	ms, err := server.NewMutableOpts("bench", logPath, groups.Config{K: 3}, nil, server.MutableOptions{BatchWindow: 0})
	if err != nil {
		return 0, err
	}
	opened := time.Now()
	w.ms, w.srv, w.h = ms, ms.Server, ms
	w.selectOp(setupShape, "setup")
	setup := time.Since(start).Seconds()
	if tr != nil {
		tr.add("server.open", "", 0, 0, start, opened)
		w.rp = newReplayer(tr, w.res)
		if err := w.traceOpenLayers(); err != nil {
			return 0, err
		}
	}
	return setup, nil
}

// traceOpenLayers times the set-up layers one by one on a copy of the log:
// the log replay and the group index build the server ran inside
// NewMutableOpts.
func (w *liveWL) traceOpenLayers() error {
	cp := filepath.Join(w.dir, "replay.plog")
	if err := copyFile(cp, w.log); err != nil {
		return err
	}
	t0 := time.Now()
	l, err := repolog.Open(cp)
	if err != nil {
		return err
	}
	t1 := time.Now()
	groups.Build(l.Repository(), groups.Config{K: 3})
	t2 := time.Now()
	if err := l.Close(); err != nil {
		return err
	}
	w.tr.add("repolog.open", "", 0, 0, t0, t1)
	w.tr.add("groups.build", "", 0, 0, t1, t2)
	w.shadow, err = repolog.Open(filepath.Join(w.dir, "shadow.plog"))
	return err
}

// writeOp serves one write and returns its ack latency in ms. The traced
// pass then re-runs the write path's layers on the snapshot the write
// applied to.
func (w *liveWL) writeOp(op liveOp, phase string) float64 {
	pre := w.ms.Snapshot()
	id := w.tr.reserve("write", 0, 0)
	d := call(w.ms, w.rec, http.MethodPost, op.path, op.body)
	end := time.Now()
	w.tr.fill(id, "", end.Add(-d), end)
	if !ok2xx(w.rec.code) {
		w.res.fail(phase, "write %s -> %d: %.200s", op.body, w.rec.code, w.rec.body.String())
		return ms(d)
	}
	w.res.op(phase, true)
	if w.rp != nil {
		w.replayWrite(pre, op, id)
	}
	return ms(d)
}

// replayWrite re-runs the write path's layers for a write the server
// acknowledged: it applies op to a clone of the pre-write snapshot and
// records the user the benchmark changed for the selector states' next
// repair.
func (w *liveWL) replayWrite(pre *server.Snapshot, op liveOp, trace int) {
	u, delta, err := replayWrite(w.tr, w.shadow, pre, op, trace)
	if err != nil {
		w.res.fail("replay", "write path: %v", err)
		return
	}
	w.res.counts["groups.delta_users"] += int64(delta)
	w.rp.noteWrite(u)
}

// replayWrite applies op to a clone of the snapshot pre through the groups
// and profile layers and appends it to the shadow log: the server's clone,
// apply, freeze and log sync, timed one by one. It returns the user written
// and the number of users in the index's delta.
func replayWrite(tr *tracer, shadow *repolog.Log, pre *server.Snapshot, op liveOp, trace int) (profile.UserID, int, error) {
	root := tr.reserve("replay.write", 0, trace)
	start := time.Now()
	var repo *profile.Repository
	var ix *groups.Index
	tr.timed("replay.clone", root, trace, func() {
		repo = pre.Repo().Clone()
		ix = pre.Index().Clone(repo)
	})
	var err error
	u := op.user
	tr.timed("replay.apply", root, trace, func() {
		if op.signup == nil {
			if err = repo.SetScore(u, op.label, op.score); err == nil {
				pid, _ := repo.Catalog().Lookup(op.label)
				err = ix.UpdateScore(u, pid)
			}
			return
		}
		u = repo.AddUser(op.name)
		for _, label := range sortedKeys(op.signup) {
			if err = repo.SetScore(u, label, op.signup[label]); err != nil {
				return
			}
		}
		_, err = ix.IndexUser(u)
	})
	var delta *groups.Delta
	tr.timed("replay.freeze", root, trace, func() {
		delta = ix.TakeDelta()
		ix.Freeze()
	})
	tr.timed("replay.log_sync", root, trace, func() {
		if op.signup == nil {
			err = shadow.AppendSetScore(u, op.label, op.score)
		} else if err = shadow.AppendAddUser(op.name); err == nil {
			for _, label := range sortedKeys(op.signup) {
				if err = shadow.AppendSetScore(u, label, op.signup[label]); err != nil {
					break
				}
			}
		}
		if err == nil {
			err = shadow.Sync()
		}
	})
	tr.fill(root, "", start, time.Now())
	if err != nil {
		return u, 0, err
	}
	return u, len(delta.Users), nil
}

func (w *liveWL) warmup() {
	for i := range liveShapes {
		w.selectOp(liveShapes[i], "warmup")
	}
}

func (w *liveWL) measure() measurement {
	m := startMeasure()
	before := w.ms.SelectCacheStats()
	for _, op := range w.ops {
		if op.shape < 0 {
			m.writeMs = append(m.writeMs, w.writeOp(op, "measure"))
			continue
		}
		m.selMs = append(m.selMs, w.selectOp(liveShapes[op.shape], "measure"))
		m.respBytes += int64(w.rec.body.Len())
	}
	m.finish()
	w.res.setCacheLayer(before, w.ms.SelectCacheStats())
	return m
}

// verify checks, with the write stream quiesced, that every shape's cached
// response is byte-identical to its uncached response, and that the served
// panel is the exact greedy panel (coverage ratio 1 on a single node).
func (w *liveWL) verify() (coverage float64) {
	cached := make([][]byte, len(liveShapes))
	for i, s := range liveShapes {
		w.selectOp(s, "verify") // fills the entry if the last write invalidated it
		call(w.ms, w.rec, http.MethodPost, s.target(), s.body())
		cached[i] = append([]byte(nil), w.rec.body.Bytes()...)
	}
	w.ms.SetSelectCacheEnabled(false)
	defer w.ms.SetSelectCacheEnabled(true)
	var ratios []float64
	for i, s := range liveShapes {
		call(w.ms, w.rec, http.MethodPost, s.target(), s.body())
		w.res.check(string(cached[i]) == w.rec.body.String(), "cached and uncached responses differ for %s%s", s.target(), s.body())
		ratios = append(ratios, servedRatio(w.ms.Snapshot(), s, cached[i], w.res))
	}
	return mean(ratios)
}

func (w *liveWL) close() error {
	var err error
	if w.ms != nil {
		err = w.ms.Close()
		w.ms = nil
	}
	if w.shadow != nil {
		if cerr := w.shadow.Close(); err == nil {
			err = cerr
		}
		w.shadow = nil
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// probe times the layers live-writes' sequence does not reach: the image
// load and the shard layer, on the server's population after the writes.
func (w *liveWL) probe(dir string) error {
	if err := probeImage(w.ms.Snapshot().Repo(), dir, w.tr, w.res); err != nil {
		return err
	}
	return probeShard(w.ms.Server, w.cfg.seed, w.tr, w.res)
}

func (w *liveWL) layers(spans []span, self map[int]time.Duration) {
	w.node.layers(spans, self)
	setWriteLayer(w.res, spans, self)
	load, _ := byName(spans, self, "codec.image_load", "")
	w.res.setLayerSamples("codec.image_load_s", "s", scale(load, 1e-3), "the image probe did not run")
	setShardProbeLayer(w.res, spans, self)
}
