package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"podium/internal/codec"
	"podium/internal/groups"
	"podium/internal/profile"
	"podium/internal/repolog"
	"podium/internal/server"
)

// Layer probes. Every traced run reports every per-layer metric, but no
// workload's sequence reaches every layer: a single node has no shard hop,
// an immutable server no write path, and live-writes opens from a log, not
// an image. After its traced pass each workload times the layers its
// sequence misses through their public calls on its own population,
// outside every timed window, in spans named as where the sequence reaches
// them:
//
//   - shard layer (live-writes, shape-sweep): a two-shard plan of the
//     server's index behind a coordinator over the server, driven for
//     probeSelects selects of the fanout shapes after warming each once;
//     each is replayed (merge, report, render) as a fanout select is;
//   - write path (shape-sweep, fanout): probeMoves seeded score moves, each
//     applied to a clone of the snapshot and appended to a shadow log;
//   - log replay (shape-sweep, fanout): repolog.Open of the population
//     written as a compacted log;
//   - image load (live-writes): codec.ReadImageFile of the population
//     written as an image.
const (
	probeSelects = 12
	probeMoves   = 8
)

// probed notes in the report which metrics a probe measured.
func probed(res *result, how string, names ...string) {
	m, _ := res.info["per_layer_probed"].(map[string]string)
	if m == nil {
		m = map[string]string{}
		res.info["per_layer_probed"] = m
	}
	for _, n := range names {
		m[n] = how
	}
}

// probeImage writes repo as a format-v2 image (untimed) and times loading it.
func probeImage(repo *profile.Repository, dir string, tr *tracer, res *result) error {
	path := filepath.Join(dir, "probe.img")
	if err := codec.WriteImageFile(path, repo); err != nil {
		return err
	}
	start := time.Now()
	if _, err := codec.ReadImageFile(path); err != nil {
		return err
	}
	tr.add("codec.image_load", "", 0, 0, start, time.Now())
	probed(res, "codec.ReadImageFile of the population written as an image", "codec.image_load_s")
	return nil
}

// probeLogReplay writes repo as a compacted repository log (untimed) and
// times replaying it.
func probeLogReplay(repo *profile.Repository, dir string, tr *tracer, res *result) error {
	path := filepath.Join(dir, "probe.plog")
	l, err := repolog.Open(path)
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
	start := time.Now()
	l, err = repolog.Open(path)
	if err != nil {
		return err
	}
	tr.add("repolog.open", "", 0, 0, start, time.Now())
	probed(res, "repolog.Open of the population written as a compacted log", "repolog.replay_s")
	return l.Close()
}

// probeWrites runs the write path's layers for probeMoves seeded score
// moves, each on a clone of the snapshot sn, appending to a shadow log.
func probeWrites(sn *server.Snapshot, dir string, seed int64, tr *tracer, res *result) error {
	shadow, err := repolog.Open(filepath.Join(dir, "probe-shadow.plog"))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed*7927 + 11))
	for i := 0; i < probeMoves; i++ {
		op := liveMove(rng, sn.Repo(), sn.Index(), map[[2]int]float64{})
		_, delta, err := replayWrite(tr, shadow, sn, op, 0)
		if err != nil {
			res.fail("probe", "write path: %v", err)
			continue
		}
		res.op("probe", true)
		res.counts["groups.delta_users"] += int64(delta)
	}
	probed(res, fmt.Sprintf("%d seeded score moves on clones of the snapshot, appended to a shadow log", probeMoves),
		"groups.clone_ms", "groups.freeze_ms", "repolog.sync_ms", "groups.delta_users")
	return shadow.Close()
}

// probeShard times the shard layer over a single-node server: the plan of
// its index, and coordinator selects through two shard servers, each
// replayed.
func probeShard(base *server.Server, seed int64, tr *tracer, res *result) error {
	start := time.Now()
	c, err := newCluster(base, groups.Config{K: 3}, tr, seed)
	if err != nil {
		return err
	}
	defer c.close()
	tr.add("shard.plan", "", 0, 0, start, c.planned)
	c.traceReplays(newReplayer(tr, res), "probe", false)
	rec := newRecorder()
	for _, s := range fanoutShapes {
		_, legs, _ := c.serve(tr, rec, "probe.warmup", s)
		servedOK(res, "probe", rec, s, legs)
	}
	for j := 0; j < probeSelects; j++ {
		i := 0
		if j%fanoutRuleEvery == fanoutRuleEvery-1 {
			i = 1
		}
		_, legs, id := c.serve(tr, rec, "probe.select", fanoutShapes[i])
		if !servedOK(res, "probe", rec, fanoutShapes[i], legs) {
			continue
		}
		c.replay(i, legs, rec.body.Bytes(), id)
		res.counts["shard.selects"]++
		res.counts["shard.legs"] += int64(len(legs))
		for _, l := range legs {
			res.counts["shard.leg_bytes"] += l.bytes
		}
	}
	probed(res, fmt.Sprintf("a %d-shard plan of the server's index behind a coordinator over it, %d selects", fanoutShards, probeSelects),
		"shard.plan_s", "shard.leg_ms", "shard.leg_bytes", "shard.legs_per_select", "shard.fanout_wait_ms",
		"shard.coordinator_self_ms", "core.merge_ms")
	return nil
}

// setWriteLayer reports the log replay and the write path's layers.
func setWriteLayer(res *result, spans []span, self map[int]time.Duration) {
	d := func(name string) []float64 { v, _ := byName(spans, self, name, ""); return v }
	res.setLayerSamples("repolog.replay_s", "s", scale(d("repolog.open"), 1e-3), "the log was not replayed")
	res.setLayerSamples("groups.clone_ms", "ms", d("replay.clone"), "no write was replayed")
	res.setLayerSamples("groups.freeze_ms", "ms", d("replay.freeze"), "no write was replayed")
	res.setLayerSamples("repolog.sync_ms", "ms", d("replay.log_sync"), "no write was replayed")
	res.setLayer("groups.delta_users", "count", float64(res.counts["groups.delta_users"]))
}

// setShardProbeLayer reports a single node's shard probe.
func setShardProbeLayer(res *result, spans []span, self map[int]time.Duration) {
	d := func(name string) []float64 { v, _ := byName(spans, self, name, ""); return v }
	res.setLayerSamples("shard.plan_s", "s", scale(d("shard.plan"), 1e-3), "the shard probe did not run")
	res.setLayerSamples("core.merge_ms", "ms", d("probe.merge"), "no probe select was replayed")
	setLegLayer(res, spans, self, "probe.select")
}
