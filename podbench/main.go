// Command podbench is Podium's end-to-end benchmark. Each workload is one
// process driving one closed-loop client through a fixed, seeded sequence
// of operations against in-process servers (loopback sockets only for the
// coordinator→shard hop), so for a given seed every cache hit, miss, repair
// and eviction repeats exactly and only the times vary.
//
//	podbench --workload live-writes|shape-sweep|fanout --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the sequence untraced and then traced, replaying each missed select's
// stages through the layers' public calls, then probes the layers the
// sequence does not reach (probe.go), and reports every per-layer metric,
// span self times and the tracing overhead. The last line of standard
// output is the result object; the line before it is the full report.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"podium/internal/profile"
	"podium/internal/synth"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // .bench_build under the working directory
	work     string // this run's scratch directory under out
}

// workload is one benchmark scenario. generate writes its inputs (untimed);
// open sets the system up from them and serves the first select, returning
// the set-up seconds; measure runs the timed sequence; verify checks the
// outputs outside the timed window and returns the coverage ratio; probe
// times, after a traced pass, the layers its sequence does not reach;
// layers turns a traced pass's spans into per-layer metrics.
type workload interface {
	generate(dir string) error
	open(tr *tracer) (float64, error)
	warmup()
	measure() measurement
	verify() float64
	probe(dir string) error
	close() error
	layers(spans []span, self map[int]time.Duration)
}

// setupReps is how many times an untraced run sets the system up; setup_s
// is their median.
const setupReps = 5

// setupShape is the select that ends every workload's set-up: the default
// panel, so set-up time does not depend on the seed's request mix.
var setupShape = shape{Budget: 8}

func newWorkload(cfg config, res *result) (workload, error) {
	switch cfg.workload {
	case "live-writes":
		return &liveWL{cfg: cfg, node: node{res: res, rec: newRecorder()}}, nil
	case "shape-sweep":
		return &sweepWL{cfg: cfg, node: node{res: res, rec: newRecorder()}}, nil
	case "fanout":
		return &fanoutWL{cfg: cfg, res: res, rec: newRecorder()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want live-writes, shape-sweep or fanout)", cfg.workload)
}

// population generates a workload's user repository: the ScaleLike preset
// at its own fixed generator seed. The population is part of the workload's
// definition; --seed varies the operation sequence run against it (which
// users are written, which shapes are requested and in what order, how
// users are partitioned). The miss path's cost depends on the population's
// structure, so drawing a new population per seed would make the seed, not
// the program, the largest source of spread between runs.
func population(users int) *profile.Repository {
	return synth.Generate(synth.ScaleLike(users)).Repo
}

// measurement is one timed pass over the sequence.
type measurement struct {
	selMs, writeMs []float64
	respBytes      int64
	start          time.Time
	wall           time.Duration
	mem0, mem1     memStats
	heapMB         float64
}

func startMeasure() measurement {
	runtime.GC()
	return measurement{mem0: readMem(false), start: time.Now()}
}

func (m *measurement) finish() {
	m.wall = time.Since(m.start)
	m.mem1 = readMem(false)
	m.heapMB = float64(readMem(true).heapAlloc) / (1 << 20)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "live-writes, shape-sweep or fanout")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 15, "measured seconds: sizes the operation sequence")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "podbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	cfg.out = filepath.Join(root, ".bench_build")
	cfg.work = filepath.Join(cfg.out, "work", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	res := newResult()
	w, err := newWorkload(cfg, res)
	if err != nil {
		return err
	}
	res.info["run"] = runRecord(cfg, cfg.work)
	t0 := time.Now()
	if err := w.generate(cfg.work); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	res.info["generate_s"] = time.Since(t0).Seconds()
	if cfg.trace {
		err = runTraced(cfg, w, res)
	} else {
		err = runUntraced(w, res)
	}
	if err != nil {
		return err
	}
	if err := checkRepeat(cfg, res); err != nil {
		return err
	}
	return report(cfg, res)
}

func runUntraced(w workload, res *result) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return err
			}
		}
		s, err := w.open(nil)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	w.warmup()
	m := w.measure()
	coverage := w.verify()
	if err := w.close(); err != nil {
		return err
	}
	lat, err := summarize(m.selMs)
	if err != nil {
		return err
	}
	res.e2e["setup_s"] = metric{median(setups), "s"}
	res.e2e["select_p50_ms"] = metric{lat.P50, "ms"}
	res.e2e["select_tail_ms"] = metric{lat.Tail, "ms"}
	res.e2e["selects_per_s"] = metric{float64(len(m.selMs)) / m.wall.Seconds(), "1/s"}
	res.e2e["heap_live_mb"] = metric{m.heapMB, "MB"}
	res.e2e["coverage_ratio"] = metric{coverage, "ratio"}
	res.info["setup_samples_s"] = setups
	res.info["select"] = lat
	passCounts(res, m)
	writeInfo(res, m)
	return nil
}

// writeInfo reports mutation ack latency where the workload writes. These
// two end-to-end metrics exist on live-writes alone, so the report line
// carries them and the result line, which holds the metrics every workload
// reports, does not; the write path's layers are per-layer metrics.
func writeInfo(res *result, m measurement) {
	if len(m.writeMs) == 0 {
		return
	}
	res.writes["write_p50_ms"] = metric{median(m.writeMs), "ms"}
	wl, err := summarize(m.writeMs)
	if err != nil {
		res.info["write_tail"] = err.Error() // a run shorter than the benchmark's
		return
	}
	res.info["write"] = wl
	res.writes["write_tail_ms"] = metric{wl.Tail, "ms"}
}

func passCounts(res *result, m measurement) {
	res.counts["selects"] = int64(len(m.selMs))
	res.counts["writes"] = int64(len(m.writeMs))
	res.counts["response_bytes"] = m.respBytes
}

// runTraced runs the sequence untraced and then traced, on fresh set-ups
// from the same inputs. The two passes must agree on every exact-repeat
// count; per-layer metrics come from the traced pass and the probes after
// it, except the runtime's allocation and GC counts, which come from the
// untraced one.
func runTraced(cfg config, w workload, res *result) error {
	if _, err := w.open(nil); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	w.warmup()
	plain := w.measure()
	if err := w.close(); err != nil {
		return err
	}
	passCounts(res, plain)
	untraced := res.counts
	res.counts = map[string]int64{}

	tr := newTracer()
	if _, err := w.open(tr); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	w.warmup()
	traced := w.measure()
	w.verify()
	passCounts(res, traced)
	res.info["peak_rss_mb_before_probe"] = peakRSSMB()
	if err := w.probe(cfg.work); err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	if err := w.close(); err != nil {
		return err
	}
	for _, k := range sortedKeys(untraced) {
		if v, ok := res.counts[k]; !ok || v != untraced[k] {
			res.fail("repeat", "count %s: untraced pass %d, traced pass %d", k, untraced[k], v)
		}
	}

	spans := tr.snapshot()
	self := selfTimes(spans)
	w.layers(spans, self)
	n := float64(len(plain.selMs))
	res.setLayer("server.response_bytes", "count", float64(traced.respBytes)/n)
	res.setLayer("runtime.alloc_mb_per_select", "MB", float64(plain.mem1.totalAlloc-plain.mem0.totalAlloc)/(1<<20)/n)
	res.setLayer("runtime.gc_cycles", "count", float64(plain.mem1.numGC-plain.mem0.numGC))
	writeInfo(res, plain)
	// Tracing overhead: the traced pass's median select latency (each
	// ServeHTTP is one span) minus the untraced pass's. The whole-pass wall
	// times, which include the replays, are in the report.
	_, selSelf := byName(spans, self, "select", "")
	res.setLayer("trace.overhead_ms", "ms", median(traced.selMs)-median(plain.selMs))
	res.setLayer("trace.select_self_ms", "ms", median(selSelf))
	res.info["trace_pass_wall_s"] = map[string]float64{"untraced": plain.wall.Seconds(), "traced": traced.wall.Seconds()}
	summary := selfSummary(spans, self)
	res.info["self_ms"] = summary
	dir := filepath.Join(cfg.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	res.info["trace_file"] = path
	return writeTrace(path, spans, summary)
}

// checkRepeat compares this run's exact-repeat counts with an earlier run of
// the same binary, workload, seed, length and mode, if one left a record; a
// difference fails the run. The first run leaves the record.
func checkRepeat(cfg config, res *result) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sum, err := fileHash(exe)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.out, "repeat")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-s%d-trace%t-%s.json", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, sum[:16]))
	prev, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		data, err := json.Marshal(res.counts)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var want map[string]int64
	if err := json.Unmarshal(prev, &want); err != nil {
		return fmt.Errorf("reading %s: %w", path, err)
	}
	for _, k := range sortedKeys(want) {
		if res.counts[k] != want[k] {
			res.fail("repeat", "count %s drifted: %d, an earlier run of this seed had %d", k, res.counts[k], want[k])
		}
	}
	res.info["repeat_checked_against"] = path
	return nil
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runRecord describes the run's environment. The log directory's file
// system decides what a log sync costs, so both sides of a comparison must
// share it.
func runRecord(cfg config, dir string) map[string]interface{} {
	return map[string]interface{}{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"log_dir_fs":    fsType(dir),
		"setup_repeats": setupReps,
	}
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown: " + err.Error()
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x01021997: "9p", 0x65735546: "fuse", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// endToEnd and perLayer name the metrics of BENCHMARK.json: an untraced
// run's result line carries every end-to-end metric, a traced run's every
// per-layer metric, and nothing else.
var (
	endToEnd = []string{"setup_s", "select_p50_ms", "select_tail_ms", "selects_per_s", "heap_live_mb", "coverage_ratio"}
	perLayer = []string{
		"server.hit_us", "server.miss_ms", "server.hit_ratio", "server.repairs", "server.recomputes",
		"server.repaired_rows", "server.cache_entries", "server.entry_evictions", "server.state_evictions",
		"server.response_bytes", "server.render_ms", "server.open_s",
		"core.sync_ms", "core.seeded_select_ms", "core.greedy_ms", "core.greedy_par_ms", "core.evaluations",
		"core.init_ms", "core.argmax_ms", "core.retract_ms", "core.merge_ms",
		"groups.instance_ms", "groups.base_marginals_ms", "groups.build_s", "groups.clone_ms",
		"groups.freeze_ms", "groups.delta_users",
		"explain.report_ms", "repolog.replay_s", "repolog.sync_ms", "codec.image_load_s",
		"shard.leg_ms", "shard.leg_bytes", "shard.legs_per_select", "shard.fanout_wait_ms",
		"shard.coordinator_self_ms", "shard.plan_s",
		"runtime.alloc_mb_per_select", "runtime.gc_cycles", "trace.overhead_ms", "trace.select_self_ms",
	}
)

// resultMetrics picks the result line's metrics; one that was not measured
// fails the run.
func resultMetrics(cfg config, res *result) map[string]metric {
	names, have := endToEnd, res.e2e
	if cfg.trace {
		names, have = perLayer, res.layer
	}
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := have[n]
		if !ok {
			res.fail("report", "metric %s was not measured: %s", n, res.absent[n])
			continue
		}
		out[n] = m
	}
	return out
}

// report prints the full report, then the result line.
func report(cfg config, res *result) error {
	metrics := resultMetrics(cfg, res)
	res.info["peak_rss_mb"] = peakRSSMB()
	attempted, failed := res.totals()
	full := map[string]interface{}{
		"end_to_end": res.e2e, "end_to_end_writes": res.writes, "per_layer": res.layer, "per_layer_absent": res.absent,
		"exact_repeat_counts": res.counts, "phases": res.phases, "info": res.info, "errors": res.errors,
	}
	data, err := json.Marshal(full)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	data, err = json.Marshal(map[string]interface{}{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from /proc, or
// returns -1 where that is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return -1
}
