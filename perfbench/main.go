// Command perfbench is the served-KV benchmark: it drives the memcache
// and RESP front ends of internal/server in process, over in-memory
// pipes, on the iDO runtime and a simulated NVM device with the paper's
// cost model, and reports end-to-end metrics (or, with --trace 1,
// per-layer metrics) as one JSON object on the last line of stdout.
//
// Run it through run.sh from the repository root, which builds it:
//
//	bash perfbench/run.sh --workload mc-write-evict --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// which end-to-end metric each per-layer metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/ido-nvm/ido/internal/obs"
)

// metricDef names one reported metric and its unit. A diagnostic is
// printed but left out of the JSON result (and of BENCHMARK.json): a
// bucket bound or a value that is 0 by construction on some workloads
// would read the same on every run.
type metricDef struct {
	name, unit string
	diagnostic bool
}

var endToEnd = []metricDef{
	{"ops_s", "1/s", false},
	{"p50_us", "us", false},
	{"p99_us", "us", false},
	{"solo_p50_us", "us", false},
	{"setup_s", "s", false},
	{"mem_mb", "MB", false},
}

var perLayer = []metricDef{
	{"server.fast_get_pct", "%", false},
	{"server.fast_retry_per_kget", "1/kop", false},
	{"server.fast_park_per_kget", "1/kop", false},
	{"server.fast_fallback_per_kget", "1/kop", false},
	{"server.touch_per_kget", "1/kop", false},
	{"server.queue_depth_avg", "count", false},
	{"server.shard_busy_pct", "%", false},
	{"server.resps_per_batch", "count", false},
	{"server.req_us_mean", "us", false},
	{"server.req_p99_us", "us", true},
	{"server.req_p999_us", "us", true},
	{"kv.set_us", "us", false},
	{"kv.get_us", "us", false},
	{"kv.del_us", "us", false},
	{"kv.getfast_us", "us", false},
	{"kv.items_per_bucket", "count", false},
	{"kv.hit_pct", "%", false},
	{"core.fase_per_op", "count", false},
	{"core.boundaries_per_fase", "count", false},
	{"core.outputs_per_region", "count", false},
	{"core.log_bytes_per_fase", "B", false},
	{"core.region_ns_mean", "ns", false},
	{"core.lock_acq_per_op", "count", false},
	{"core.recover_ms", "ms", false},
	{"nvm.fences_per_op", "count", false},
	{"nvm.flushes_per_op", "count", false},
	{"nvm.stores_per_op", "count", false},
	{"nvm.ntstores_per_op", "count", false},
	{"nvm.flush_bytes_per_user_byte", "B/B", false},
	{"nvm.fence_ns_mean", "ns", false},
	{"nvm.gc_fases_per_fence", "count", false},
	{"nvm.gc_combined_pct", "%", false},
	{"nvm.gc_dwell_per_epoch", "count", false},
	{"nvalloc.alloc_per_kop", "1/kop", false},
	{"nvalloc.free_per_kop", "1/kop", false},
	{"nvalloc.refill_per_kop", "1/kop", false},
	{"replica.records_per_write", "count", false},
	{"replica.bytes_per_record", "B", false},
	{"replica.lag_records_avg", "count", false},
	{"replica.lag_us_avg", "us", true},
	{"replica.acked_pct", "%", false},
	{"replica.degraded", "count", false},
	{"client.p90_us", "us", false},
	{"client.p999_us", "us", false},
	{"runtime.sched_p99_us", "us", true},
	{"runtime.gc_per_s", "1/s", true},
	{"host.steal_pct", "%", true},
	{"trace.overhead_pct", "%", false},
}

// layerToE2E is the prediction each per-layer metric carries: which
// end-to-end metric it should move, on which workload.
var layerToE2E = []string{
	"server.fast_* server.touch_per_kget -> ops_s, p50_us on mc-read-zipf; no change on the other two",
	"server.queue_depth_avg server.shard_busy_pct server.resps_per_batch server.req_us_mean -> p99_us on mc-write-evict, resp-repl-zipf",
	"kv.*_us kv.items_per_bucket kv.hit_pct -> solo_p50_us on the workload whose ops they time",
	"core.* -> ops_s on mc-write-evict (core.recover_ms is reported only)",
	"nvm.* -> ops_s, p99_us on mc-write-evict; near zero on mc-read-zipf",
	"nvalloc.* -> ops_s on mc-write-evict only",
	"replica.* -> p50_us, ops_s on resp-repl-zipf only",
	"client.p90_us client.p999_us server.req_p99_us server.req_p999_us runtime.* host.steal_pct -> attribute the p99_us/p999 tails; trace.overhead_pct is reported only",
}

// setups is how many worlds a timed run builds, one after another;
// setup_s is the median build time. Each world is measured for an equal
// share of the interval and the figures cover all of the shares.
const setups = 3

func main() {
	var d deployment
	wname := flag.String("workload", "", "workload: mc-read-zipf | mc-write-evict | resp-repl-zipf")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured interval, seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for the span file")
	commit := flag.String("commit", "", "source revision to stamp (empty: a digest of the Go sources under -root)")
	root := flag.String("root", ".", "repository root, for the source digest")
	flag.IntVar(&d.deviceMiB, "device-mib", 64, "simulated NVM device size, MiB")
	flag.IntVar(&d.flushNS, "flush-ns", 50, "device cost of one cache-line write-back, ns")
	flag.IntVar(&d.fenceNS, "fence-ns", 400, "device cost of one persist fence, ns")
	flag.IntVar(&d.ntstoreNS, "ntstore-ns", 150, "device cost of one non-temporal store, ns")
	flag.IntVar(&d.gcWindowNS, "gc-window-ns", 2000, "group-commit batch window, simulated ns")
	flag.IntVar(&d.shards, "shards", 16, "shard pipelines")
	flag.IntVar(&d.buckets, "buckets", 4096, "hash buckets per shard")
	flag.Parse()

	wl, err := findWorkload(*wname)
	if err != nil {
		fatal(err)
	}
	if *commit == "" {
		*commit = sourceDigest(*root)
	}
	stamp(wl, &d, *commit)
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = tracedRun(wl, &d, *seed, dur, *outDir)
	} else {
		res, err = timedRun(wl, &d, *seed, dur)
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout, *trace == 1)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// result is one run's outcome.
type result struct {
	attempted, failed uint64
	metrics           map[string]float64
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) count(attempted, failed uint64) {
	r.attempted += attempted
	r.failed += failed
}

func (r *result) countDrive(cs []*client) {
	for _, c := range cs {
		r.count(c.st.attempted, c.st.failed())
	}
}

func (r *result) print(w io.Writer, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := map[string]any{}
	for _, m := range defs {
		v := r.metrics[m.name]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", m.name, v, m.unit)
		if !m.diagnostic {
			out[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}
	failPct := 100 * ratio(float64(r.failed), float64(r.attempted))
	fmt.Fprintf(w, "%-32s %14.4f %s  (%d failed of %d attempted)\n", "fail_pct", failPct, "%", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	if traced {
		fmt.Fprintln(w, "per-layer -> end-to-end:")
		for _, l := range layerToE2E {
			fmt.Fprintln(w, "  "+l)
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}

func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// interval accumulates the client-side outcome of one or more measured
// intervals: the exact latency of every request sent in them (recs, one
// per client), the replies received in them, and the lowest and highest
// reply rate of their windows, which show a stall.
type interval struct {
	recs           []*latRec
	replies        uint64
	ns             int64
	winMin, winMax float64 // replies per second
}

func newInterval(clients int) *interval {
	iv := &interval{recs: newLatRecs(clients)}
	iv.reset()
	return iv
}

func (iv *interval) reset() {
	for _, r := range iv.recs {
		r.reset()
	}
	iv.replies, iv.ns, iv.winMin, iv.winMax = 0, 0, math.Inf(1), 0
}

// measured summarises an interval: the reply rate and the exact
// latency quantiles over all of it.
type measured struct {
	opsS                       float64
	n                          int // latency samples
	p50, p90, p99, p999, maxUS float64
	winMin, winMax             float64
}

func (iv *interval) summary() *measured {
	m := &measured{winMin: iv.winMin, winMax: iv.winMax}
	m.opsS = ratio(float64(iv.replies), float64(iv.ns)/1e9)
	q, n := quantilesUS(iv.recs, 0.5, 0.9, 0.99, 0.999, 1)
	m.p50, m.p90, m.p99, m.p999, m.maxUS, m.n = q[0], q[1], q[2], q[3], q[4], n
	return m
}

// measureWindows is how many windows a measured interval is cut into
// for the per-window reply rates.
const measureWindows = 10

// measure drives cs closed-loop for a warm-up and then dur, adding to
// iv the latency of every request sent in the measured interval and
// the replies received in it.
func (w *world) measure(cs []*client, iv *interval, depth int, dur time.Duration, spans *spanLog, parent int32) error {
	warm := min(dur/10, time.Second)
	winNS := int64(dur) / measureWindows
	from := now() + int64(warm)
	until := from + winNS*measureWindows
	for i, c := range cs {
		c.recFrom, c.recUntil, c.winNS = from, until, winNS
		c.done = make([]uint64, measureWindows)
		c.rec = iv.recs[i]
		c.spans, c.spanParent = spans, parent
	}
	err := w.runClients(cs, depth, until, 0)
	for i := 0; i < measureWindows; i++ {
		var d uint64
		for _, c := range cs {
			d += c.done[i]
		}
		iv.replies += d
		rate := float64(d) / (float64(winNS) / 1e9)
		iv.winMin, iv.winMax = min(iv.winMin, rate), max(iv.winMax, rate)
	}
	iv.ns += until - from
	for _, c := range cs {
		c.recFrom, c.recUntil, c.rec, c.spans = 0, 0, nil, nil
	}
	return err
}

// soloFor is the length of the unloaded-latency phase, in all.
const soloFor = 3 * time.Second

// timedRun is the untraced run: end-to-end metrics and every
// correctness phase. It builds setups worlds in turn and measures each
// for an equal share of dur, loaded and then solo.
func timedRun(wl *workload, d *deployment, seed int64, dur time.Duration) (*result, error) {
	r := newResult()
	streams := genStreams(wl, seed)
	loaded, solo := newInterval(conns), newInterval(1)
	var setupS []float64
	var standby checkResult
	var worldOps []string
	cpu0, steal0 := hostTicks()
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		w, err := build(wl, d, streams, nil, nil, -1)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		replies, ns := loaded.replies, loaded.ns
		cr, err := w.measureWorld(r, loaded, solo, dur/setups)
		worldOps = append(worldOps, fmt.Sprintf("%.0f", ratio(float64(loaded.replies-replies), float64(loaded.ns-ns)/1e9)))
		standby.checked += cr.checked
		standby.failed += cr.failed
		w.close()
		releaseMemory()
		if err != nil {
			return nil, err
		}
	}
	cpu1, steal1 := hostTicks()
	m, s := loaded.summary(), solo.summary()
	slices.Sort(setupS)
	r.metrics["setup_s"] = setupS[len(setupS)/2]
	r.metrics["ops_s"] = m.opsS
	r.metrics["p50_us"] = m.p50
	r.metrics["p99_us"] = m.p99
	r.metrics["solo_p50_us"] = s.p50
	r.metrics["mem_mb"] = peakRSSMB()
	r.notes = append(r.notes,
		fmt.Sprintf("p50_us and p99_us over %d exact latency samples from %d worlds; solo_p50_us over %d", m.n, setups, s.n),
		latencyNote("loaded", m), latencyNote("solo", s),
		fmt.Sprintf("ops/s per world: %s", strings.Join(worldOps, " ")),
		fmt.Sprintf("hypervisor steal: %.1f%% of host CPU time while the worlds ran", 100*ratio(float64(steal1-steal0), float64(cpu1-cpu0))))
	if wl.repl {
		r.notes = append(r.notes, fmt.Sprintf("standby convergence: %d keys checked in %d worlds, %d wrong",
			standby.checked, setups, standby.failed))
	}
	if err := durability(r, d, seed, nil, -1); err != nil {
		return nil, err
	}
	return r, nil
}

// measureWorld measures one world of a timed run for dur loaded and
// then soloFor/setups solo, and checks the standby when there is one.
func (w *world) measureWorld(r *result, loaded, solo *interval, dur time.Duration) (checkResult, error) {
	var cr checkResult
	if err := w.measure(w.clients, loaded, depth, dur, nil, -1); err != nil {
		return cr, err
	}
	if err := w.measure(w.clients[:1], solo, 1, soloFor/setups, nil, -1); err != nil {
		return cr, err
	}
	logFails("measure", w.clients)
	r.countDrive(w.clients)
	if !w.wl.repl {
		return cr, nil
	}
	cr, err := w.checkStandby()
	r.count(cr.checked, cr.failed)
	return cr, err
}

// crashLoadFor is how long the durability phase drives load before the
// injected crash.
const crashLoadFor = 300 * time.Millisecond

func durability(r *result, d *deployment, seed int64, spans *spanLog, parent int32) error {
	sp := spans.open(spanCrash, parent)
	defer spans.close(sp)
	cr, err := crashCheck(d, seed, crashLoadFor, spans, sp, nil)
	if err != nil {
		return err
	}
	r.count(cr.load.attempted, cr.load.failed())
	r.count(cr.checked, cr.failed)
	r.metrics["core.recover_ms"] = cr.recoverMS
	r.notes = append(r.notes, fmt.Sprintf("durability: %d requests acked before the crash, %d keys checked after recovery, %d unexplainable; recovery %.3f ms",
		cr.load.completed, cr.checked, cr.failed, cr.recoverMS))
	return nil
}

// tracedRun is the per-layer run: an untraced interval for the
// overhead baseline, then a world with a tracer attached at device
// birth, sampled gauges, timed direct layer calls and spans.
func tracedRun(wl *workload, d *deployment, seed int64, dur time.Duration, outDir string) (*result, error) {
	r := newResult()
	spans := newSpanLog()
	root := spans.open(spanRun, -1)
	streams := genStreams(wl, seed)
	iv := newInterval(conns)
	half := dur / 2

	// Untraced baseline on its own world.
	w, err := build(wl, d, streams, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	if err := w.measure(w.clients, iv, depth, half, nil, -1); err != nil {
		w.close()
		return nil, err
	}
	base := iv.summary()
	logFails("measure", w.clients)
	r.countDrive(w.clients)
	w.close()
	w = nil
	releaseMemory()

	tr := obs.New(obs.Config{ThreadRingCap: 1 << 12, DeviceRingCap: 1 << 13})
	sp := spans.open(spanSetup, root)
	if w, err = build(wl, d, streams, tr, spans, sp); err != nil {
		return nil, err
	}
	spans.close(sp)
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var a, b probe
	w.readProbe(&a)
	g := w.startSampler()
	sp = spans.open(spanMeasure, root)
	iv.reset()
	err = w.measure(w.clients, iv, depth, half, spans, sp)
	spans.close(sp)
	g.finish()
	if err != nil {
		return nil, err
	}
	m := iv.summary()
	w.readProbe(&b)
	logFails("measure", w.clients)
	for k, v := range layerMetrics(&a, &b, g) {
		r.metrics[k] = v
	}
	r.metrics["kv.items_per_bucket"] = itemsPerBucket(w.primary.store, d.buckets)
	r.metrics["client.p90_us"] = base.p90
	r.metrics["client.p999_us"] = base.p999
	r.metrics["trace.overhead_pct"] = 100 * (base.opsS - m.opsS) / base.opsS
	r.countDrive(w.clients)
	r.notes = append(r.notes,
		latencyNote("untraced", base), latencyNote("traced", m))
	if !wl.repl {
		r.notes = append(r.notes, "replica.*: this workload runs without a standby, so there is no replication to measure (reported as 0)")
	}

	if wl.repl {
		sp = spans.open(spanConverge, root)
		cr, err := w.checkStandby()
		spans.close(sp)
		if err != nil {
			return nil, err
		}
		r.count(cr.checked, cr.failed)
	}
	sp = spans.open(spanDirect, root)
	c0 := w.clients[0]
	kt := w.directKV(c0.stream[:directOps], c0.base, spans, sp)
	spans.close(sp)
	r.metrics["kv.get_us"] = medianUS(kt.get)
	r.metrics["kv.set_us"] = medianUS(kt.set)
	r.metrics["kv.del_us"] = medianUS(kt.del)
	r.metrics["kv.getfast_us"] = medianUS(kt.getFast)
	r.notes = append(r.notes, fmt.Sprintf("kv direct calls: %d get, %d set, %d del, %d getfast",
		len(kt.get), len(kt.set), len(kt.del), len(kt.getFast)))
	w.close()
	w = nil
	releaseMemory()

	if err := durability(r, d, seed, spans, root); err != nil {
		return nil, err
	}
	spans.close(root)
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, seed))
	if err := spans.write(path); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, fmt.Sprintf("spans: %d written to %s (%d dropped)", len(spans.spans), path, spans.dropped))
	return r, nil
}

func latencyNote(label string, m *measured) string {
	return fmt.Sprintf("%s: %.0f ops/s (%.0f to %.0f in windows of a %dth of an interval), p50 %.1f us, p90 %.1f us, p99 %.1f us, p999 %.1f us, max %.1f us over %d samples",
		label, m.opsS, m.winMin, m.winMax, measureWindows, m.p50, m.p90, m.p99, m.p999, m.maxUS, m.n)
}

// directOps is how many stream ops the traced run replays as direct
// kv calls.
const directOps = 20000

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// stamp prints what the numbers depend on: host, toolchain, source
// revision, deployment, and the workload's reason for being here.
func stamp(wl *workload, d *deployment, commit string) {
	fmt.Printf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
	fmt.Printf("deployment: device=%dMiB flush=%dns fence=%dns ntstore=%dns group-commit window=%dns force-combine=off shards=%d buckets/shard=%d\n",
		d.deviceMiB, d.flushNS, d.fenceNS, d.ntstoreNS, d.gcWindowNS, d.shards, d.buckets)
	fmt.Printf("workload: %s, closed loop, %d conns x depth %d: %s\n", wl.name, conns, depth, wl.why)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// sourceDigest identifies the source tree when no revision is given
// (an exported checkout has no version control): a SHA-256 over the
// path and contents of every Go source and module file under root.
func sourceDigest(root string) string {
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && e.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return fmt.Sprintf("src-sha256:%x", h.Sum(nil)[:8])
}
