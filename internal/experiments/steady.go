// Steady-state selection benchmark: select throughput under a live write
// stream, with and without the cross-epoch select cache. The server suite
// (server.go) retired the single-mutex architecture; this suite measures the
// next bottleneck — on the snapshot server every mutation batch publishes a
// fresh epoch, and with the select cache off every select runs one fresh
// selection, paying a full base-marginal recomputation whenever its epoch's
// instance is new. The watermark-keyed cache plus delta-repaired selector state
// (server/selcache.go, core/incremental.go) is the fix; this suite drives
// both configurations with an identical select-heavy workload and reports the
// steady-state speedup, the cache hit rate, and the repair-versus-recompute
// sync cost.
package experiments

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"podium/internal/groups"
	"podium/internal/server"
)

// SteadyConfig parameterizes the steady-state suite.
type SteadyConfig struct {
	Seed int64
	// Tiers are the population sizes to run (default 10_000 and 100_000).
	Tiers []int
	// Props / PropsPerUser shape the vocabulary (defaults 2500 / 8 — the
	// sparse regime of the server suite, scaled up).
	Props, PropsPerUser int
	// Clients is the closed-loop select client count (default 8); the write
	// stream paces itself beside them to hold the mix.
	Clients int
	// Duration is the measured run length per server per tier (default 2s).
	Duration time.Duration
	// WritesPerReads fixes the mix at 1 write per WritesPerReads reads
	// (default 10 — the 1:10 write:read mix).
	WritesPerReads int
	// BatchWindow is the snapshot writer's coalescing window (default 10ms).
	BatchWindow time.Duration
	Budget      int
	// Dir holds the repository logs; a temp dir is created when empty.
	Dir string
}

func (c SteadyConfig) withDefaults() SteadyConfig {
	if len(c.Tiers) == 0 {
		c.Tiers = []int{10_000, 100_000}
	}
	if c.Props <= 0 {
		c.Props = 2500
	}
	if c.PropsPerUser <= 0 {
		c.PropsPerUser = 8
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.WritesPerReads <= 0 {
		c.WritesPerReads = 10
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 10 * time.Millisecond
	}
	if c.Budget <= 0 {
		c.Budget = 8
	}
	return c
}

// SteadyCacheStats is the select cache's behavior over one measured run.
type SteadyCacheStats struct {
	Hits         uint64  `json:"hits"`
	Misses       uint64  `json:"misses"`
	Bypass       uint64  `json:"bypass"`
	HitRate      float64 `json:"hit_rate"`
	Repairs      uint64  `json:"repairs"`
	Recomputes   uint64  `json:"recomputes"`
	RepairedRows uint64  `json:"repaired_rows"`
	// Mean microseconds per selector-state sync, by path. Repair is the
	// delta path (O(Δ) row re-summing); recompute is the fallback (full
	// base-marginal pass) — the gap is the tentpole's per-miss saving.
	RepairMeanUs    float64 `json:"repair_mean_us"`
	RecomputeMeanUs float64 `json:"recompute_mean_us"`
}

// SteadyRunStats is one configuration's measured steady-state behavior.
type SteadyRunStats struct {
	Server      string            `json:"server"`
	SelectOps   int               `json:"select_ops"`
	WriteOps    int               `json:"write_ops"`
	SelectQPS   float64           `json:"select_qps"`
	WriteQPS    float64           `json:"write_qps"`
	SelectP50Ms float64           `json:"select_p50_ms"`
	SelectP99Ms float64           `json:"select_p99_ms"`
	WriteP99Ms  float64           `json:"write_p99_ms"`
	Batches     uint64            `json:"batches"`
	Mutations   uint64            `json:"mutations"`
	Cache       *SteadyCacheStats `json:"cache,omitempty"`
}

// SteadyTierReport is one population tier's baseline-versus-cached result.
type SteadyTierReport struct {
	Users  int `json:"users"`
	Groups int `json:"groups"`
	// Baseline is the cache-disabled configuration: every select recomputes
	// (JSON label "recompute-per-epoch", kept from when a per-epoch response
	// memo backed it). Cached adds the watermark-keyed cache + delta repair.
	Baseline SteadyRunStats `json:"baseline"`
	Cached   SteadyRunStats `json:"cached"`
	// SelectSpeedup is the acceptance headline: cached select QPS over
	// baseline select QPS on the same workload.
	SelectSpeedup float64 `json:"select_speedup"`
	// Identical records the post-run identity check: after the write stream
	// quiesces, the cached select response is byte-identical to a fresh
	// uncached selection on the same state.
	Identical bool `json:"identical"`
}

// SteadyReport is the machine-readable result, serialized to
// BENCH_steady.json.
type SteadyReport struct {
	Suite       string             `json:"suite"`
	Workload    string             `json:"workload"`
	WriteRatio  string             `json:"write_ratio"`
	Clients     int                `json:"clients"`
	Budget      int                `json:"budget"`
	Seed        int64              `json:"seed"`
	NumCPU      int                `json:"num_cpu"`
	DurationSec float64            `json:"duration_sec"`
	Tiers       []SteadyTierReport `json:"tiers"`
}

// steadyOp is one generated request.
type steadyOp struct {
	method, path, body string
}

// steadyWriteStream deterministically generates the live write stream: mostly
// score updates with occasional sign-ups (the same shape as the server suite).
func steadyWriteStream(users int, cfg SteadyConfig) func() steadyOp {
	rng := rand.New(rand.NewSource(cfg.Seed * 7177))
	nextUser := 0
	return func() steadyOp {
		if rng.Intn(100) < 15 {
			nextUser++
			name := fmt.Sprintf("new-%d", nextUser)
			props := make([]string, 0, 4)
			for _, p := range rng.Perm(cfg.Props)[:4] {
				props = append(props, fmt.Sprintf("%q:%g", propLabel(p), float64(rng.Intn(1001))/1000))
			}
			return steadyOp{http.MethodPost, "/api/users",
				fmt.Sprintf(`{"name":%q,"properties":{%s}}`, name, strings.Join(props, ","))}
		}
		return steadyOp{http.MethodPost, "/api/scores",
			fmt.Sprintf(`{"user":%d,"label":%q,"score":%g}`,
				rng.Intn(users), propLabel(rng.Intn(cfg.Props)), float64(rng.Intn(1001))/1000)}
	}
}

// benchRecorder is a reusable in-memory http.ResponseWriter. The stock
// httptest.ResponseRecorder allocates a fresh body buffer per request; at the
// suite's multi-hundred-KB select responses that turns the driver into a GC
// benchmark, so each select client reuses one buffer and the measurement
// stays on the server.
type benchRecorder struct {
	code int
	hdr  http.Header
	body bytes.Buffer
}

func newBenchRecorder() *benchRecorder {
	return &benchRecorder{code: http.StatusOK, hdr: make(http.Header)}
}
func (r *benchRecorder) Header() http.Header         { return r.hdr }
func (r *benchRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }
func (r *benchRecorder) WriteHeader(code int)        { r.code = code }
func (r *benchRecorder) reset() {
	r.code = http.StatusOK
	r.hdr = make(http.Header)
	r.body.Reset()
}

// steadyWriterSlots bounds the write stream's in-flight mutations. Mutation
// acks wait on the batched log sync, so concurrent writes share one group
// commit and the stream's throughput is slots-per-sync; the bound also keeps
// the stream from flooding the apply queue.
const steadyWriterSlots = 64

// driveSteady runs the workload against ms for cfg.Duration and returns
// select/write latency samples (in seconds). cfg.Clients closed-loop clients
// issue selections flat-out (a quarter asking for the pretty response shape so
// both cache-key variants stay live) while a dedicated write stream — the
// "live writes" of the suite's title — paces itself off the shared select
// counter to hold the configured write:read mix, the way an ingest pipeline
// runs beside dashboard readers rather than inside their request loops. The
// pacing is two-sided so the mix holds no matter which side is faster:
// the dispatcher stalls when writes run ahead of 1:WritesPerReads, and the
// select clients stall when reads outrun what the write stream has issued
// (plus one in-flight window of slack) — a run can never flatter the cache by
// quietly running reads at a lighter mix than configured. Shed writes (429
// under momentary queue pressure) are dropped from the sample set and
// re-paced, not counted as failures.
func driveSteady(ms *server.MutableServer, users int, cfg SteadyConfig) (selLat, writeLat []float64, elapsed float64) {
	var selOps, writesIssued atomic.Int64
	ratio := int64(cfg.WritesPerReads)
	slack := ratio * steadyWriterSlots
	perClient := make([][]float64, cfg.Clients)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*2003 + int64(c)))
			rec := newBenchRecorder()
			body := fmt.Sprintf(`{"budget":%d}`, cfg.Budget)
			for time.Now().Before(deadline) {
				if selOps.Load() >= writesIssued.Load()*ratio+slack {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				path := "/api/select"
				if rng.Intn(4) == 0 {
					path += "?pretty=1"
				}
				req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
				rec.reset()
				t0 := time.Now()
				ms.ServeHTTP(rec, req)
				lat := time.Since(t0).Seconds()
				if rec.code != http.StatusOK {
					panic(fmt.Sprintf("steady bench: POST %s -> %d: %s", path, rec.code, rec.body.String()))
				}
				perClient[c] = append(perClient[c], lat)
				selOps.Add(1)
			}
		}(c)
	}

	// The write stream: one dispatcher paces issuance to the mix; each write
	// runs in its own goroutine (bounded by steadyWriterSlots) so concurrent
	// mutations coalesce into one batch and share the log's group commit.
	var (
		wmu      sync.Mutex
		wsamples []float64
		wwg      sync.WaitGroup
	)
	sem := make(chan struct{}, steadyWriterSlots)
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		next := steadyWriteStream(users, cfg)
		for time.Now().Before(deadline) {
			if writesIssued.Load()*ratio >= selOps.Load() {
				time.Sleep(200 * time.Microsecond)
				continue
			}
			op := next()
			writesIssued.Add(1)
			sem <- struct{}{}
			wwg.Add(1)
			go func(op steadyOp) {
				defer wwg.Done()
				defer func() { <-sem }()
				req := httptest.NewRequest(op.method, op.path, strings.NewReader(op.body))
				rec := httptest.NewRecorder()
				t0 := time.Now()
				ms.ServeHTTP(rec, req)
				lat := time.Since(t0).Seconds()
				if rec.Code == http.StatusTooManyRequests {
					writesIssued.Add(-1)
					return
				}
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("steady bench: %s %s -> %d: %s", op.method, op.path, rec.Code, rec.Body.String()))
				}
				wmu.Lock()
				wsamples = append(wsamples, lat)
				wmu.Unlock()
			}(op)
		}
	}()

	wg.Wait()
	wwg.Wait() // every issued write is acked before the caller's identity check
	elapsed = time.Since(start).Seconds()
	for _, samples := range perClient {
		selLat = append(selLat, samples...)
	}
	return selLat, wsamples, elapsed
}

func steadyRunStats(name string, selLat, writeLat []float64, elapsed float64) SteadyRunStats {
	return SteadyRunStats{
		Server:      name,
		SelectOps:   len(selLat),
		WriteOps:    len(writeLat),
		SelectQPS:   float64(len(selLat)) / elapsed,
		WriteQPS:    float64(len(writeLat)) / elapsed,
		SelectP50Ms: percentileMs(selLat, 0.50),
		SelectP99Ms: percentileMs(selLat, 0.99),
		WriteP99Ms:  percentileMs(writeLat, 0.99),
	}
}

// steadyCacheStats converts the server's raw counters into the report form.
func steadyCacheStats(s server.SelectCacheStats) *SteadyCacheStats {
	cs := &SteadyCacheStats{
		Hits: s.Hits, Misses: s.Misses, Bypass: s.Bypass,
		Repairs: s.Repairs, Recomputes: s.Recomputes, RepairedRows: s.RepairedRows,
	}
	if total := s.Hits + s.Misses; total > 0 {
		cs.HitRate = float64(s.Hits) / float64(total)
	}
	if s.Repairs > 0 {
		cs.RepairMeanUs = float64(s.RepairNs) / float64(s.Repairs) / 1000
	}
	if s.Recomputes > 0 {
		cs.RecomputeMeanUs = float64(s.RecomputeNs) / float64(s.Recomputes) / 1000
	}
	return cs
}

// steadySelect issues one compact feedback-free select and returns the raw
// response bytes.
func steadySelect(ms *server.MutableServer, budget int) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, "/api/select",
		strings.NewReader(fmt.Sprintf(`{"budget":%d}`, budget)))
	rec := httptest.NewRecorder()
	ms.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("select -> %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), nil
}

// runSteadyTier seeds one population tier and measures both configurations.
func runSteadyTier(dir string, users int, cfg SteadyConfig) (SteadyTierReport, error) {
	tier := SteadyTierReport{Users: users}
	gcfg := groups.Config{K: 3}
	seedCfg := ServerConfig{Seed: cfg.Seed, Users: users, Props: cfg.Props, PropsPerUser: cfg.PropsPerUser}

	run := func(name string, cached bool) (SteadyRunStats, *server.MutableServer, error) {
		path := filepath.Join(dir, fmt.Sprintf("steady-%d-%s.plog", users, name))
		if err := sparseLog(path, seedCfg); err != nil {
			return SteadyRunStats{}, nil, err
		}
		ms, err := server.NewMutableOpts("steady", path, gcfg, nil,
			server.MutableOptions{BatchWindow: cfg.BatchWindow})
		if err != nil {
			return SteadyRunStats{}, nil, err
		}
		ms.SetSelectCacheEnabled(cached)
		selLat, writeLat, elapsed := driveSteady(ms, users, cfg)
		stats := steadyRunStats(name, selLat, writeLat, elapsed)
		stats.Batches, stats.Mutations = ms.BatchStats()
		if cached {
			stats.Cache = steadyCacheStats(ms.SelectCacheStats())
		}
		return stats, ms, nil
	}

	base, baseSrv, err := run("recompute-per-epoch", false)
	if err != nil {
		return tier, err
	}
	if err := baseSrv.Close(); err != nil {
		return tier, err
	}
	tier.Baseline = base

	cachedStats, ms, err := run("watermark-cache", true)
	if err != nil {
		return tier, err
	}
	tier.Cached = cachedStats
	tier.Groups = ms.Snapshot().Index().NumGroups()

	// Identity check: with the write stream quiesced (driveSteady joined and
	// every write was acked, so the apply loop is idle), the cached response
	// must be byte-identical to a fresh uncached selection on the same state.
	cachedResp, err := steadySelect(ms, cfg.Budget)
	if err != nil {
		return tier, err
	}
	ms.SetSelectCacheEnabled(false)
	freshResp, err := steadySelect(ms, cfg.Budget)
	if err != nil {
		return tier, err
	}
	tier.Identical = string(cachedResp) == string(freshResp)
	if err := ms.Close(); err != nil {
		return tier, err
	}

	if base.SelectQPS > 0 {
		tier.SelectSpeedup = cachedStats.SelectQPS / base.SelectQPS
	}
	return tier, nil
}

// RunSteadySuite benchmarks steady-state selection under live writes at every
// tier and returns the rendered table plus the JSON report.
func RunSteadySuite(cfg SteadyConfig) (*Table, *SteadyReport, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "podium-bench-steady")
		if err != nil {
			return nil, nil, err
		}
		defer os.RemoveAll(dir)
	}

	rep := &SteadyReport{
		Suite:       "steady",
		Workload:    "closed-loop selects (25% pretty) beside a paced write stream of score updates and sign-ups",
		WriteRatio:  fmt.Sprintf("1:%d", cfg.WritesPerReads),
		Clients:     cfg.Clients,
		Budget:      cfg.Budget,
		Seed:        cfg.Seed,
		NumCPU:      runtime.NumCPU(),
		DurationSec: cfg.Duration.Seconds(),
	}
	const (
		mSelQPS   = "Select QPS"
		mSelP50   = "Select p50 (ms)"
		mSelP99   = "Select p99 (ms)"
		mHitRate  = "Hit rate"
		mSpeedup  = "Speedup"
		mRepairUs = "Repair µs"
		mRecompUs = "Recompute µs"
	)
	t := &Table{
		Title: fmt.Sprintf("Steady-state selects under 1:%d write:read, %d clients",
			cfg.WritesPerReads, cfg.Clients),
		Metrics: []string{mSelQPS, mSelP50, mSelP99, mHitRate, mSpeedup, mRepairUs, mRecompUs},
	}
	for _, users := range cfg.Tiers {
		tier, err := runSteadyTier(dir, users, cfg)
		if err != nil {
			return nil, nil, err
		}
		rep.Tiers = append(rep.Tiers, tier)
		t.Rows = append(t.Rows, Row{
			Name: fmt.Sprintf("%dK baseline", users/1000),
			Values: map[string]float64{
				mSelQPS: tier.Baseline.SelectQPS,
				mSelP50: tier.Baseline.SelectP50Ms,
				mSelP99: tier.Baseline.SelectP99Ms,
			},
		})
		row := Row{
			Name: fmt.Sprintf("%dK cached", users/1000),
			Values: map[string]float64{
				mSelQPS:  tier.Cached.SelectQPS,
				mSelP50:  tier.Cached.SelectP50Ms,
				mSelP99:  tier.Cached.SelectP99Ms,
				mSpeedup: tier.SelectSpeedup,
			},
		}
		if c := tier.Cached.Cache; c != nil {
			row.Values[mHitRate] = c.HitRate
			row.Values[mRepairUs] = c.RepairMeanUs
			row.Values[mRecompUs] = c.RecomputeMeanUs
		}
		t.Rows = append(t.Rows, row)
	}
	return t, rep, nil
}
