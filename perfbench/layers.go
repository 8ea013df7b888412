package main

import (
	"os"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/server"
)

// probe is one cumulative reading of every layer's counters; two
// probes bracket the traced interval.
type probe struct {
	obs    obs.State
	dev    nvm.Stats
	gc     nvm.GCStats
	srv    metrics.ServerStats
	repl   metrics.ReplStats
	ops    uint64 // client completions
	writes uint64 // client sets + dels acknowledged
	sets   uint64
	dels   uint64
	gets   uint64
	hits   uint64
	monoNS int64
	// Go runtime: the scheduler-latency histogram (time goroutines
	// spent runnable before running) and completed GC cycles.
	sched    []uint64
	gcCycles uint64
	// Host CPU time from /proc/stat: all ticks and those stolen by the
	// hypervisor.
	cpuTicks, stealTicks uint64
}

var rtSamples = []rtmetrics.Sample{
	{Name: "/sched/latencies:seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func (w *world) readProbe(p *probe) {
	w.tr.ReadState(&p.obs)
	dev := w.primary.reg.Dev
	p.dev = dev.Stats()
	p.gc = dev.GroupCommitStats()
	w.srv.MetricsSnapshot(&p.srv)
	if w.ship != nil {
		w.ship.ReplSnapshot(&p.repl)
	}
	p.ops, p.writes, p.gets, p.hits = 0, 0, 0, 0
	for _, c := range w.clients {
		p.ops += c.st.completed
		p.writes += c.st.writes
		p.gets += c.st.gets
		p.hits += c.st.hits
	}
	p.sets, p.dels = 0, 0
	for _, sh := range p.srv.Shards {
		p.sets += sh.Sets
		p.dels += sh.Dels
	}
	p.monoNS = now()
	rtmetrics.Read(rtSamples)
	p.sched = slices.Clone(rtSamples[0].Value.Float64Histogram().Counts)
	p.gcCycles = rtSamples[1].Value.Uint64()
	p.cpuTicks, p.stealTicks = hostTicks()
}

// hostTicks reads the aggregate cpu line of /proc/stat: total ticks and
// steal ticks (zero when unavailable).
func hostTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// schedQuantileUS is the q-quantile of scheduler latency between two
// probes, as the upper bound of its histogram bucket.
func schedQuantileUS(a, b *probe, q float64) float64 {
	bounds := rtSamples[0].Value.Float64Histogram().Buckets
	var total uint64
	for i := range b.sched {
		total += b.sched[i] - a.sched[i]
	}
	rank := uint64(q * float64(total))
	var seen uint64
	for i := range b.sched {
		seen += b.sched[i] - a.sched[i]
		if seen > rank {
			return bounds[i+1] * 1e6
		}
	}
	return 0
}

// gaugeSampler averages the instantaneous gauges (shard queue depth,
// shard busy, replication lag) over the traced interval.
type gaugeSampler struct {
	stop                        chan struct{}
	done                        sync.WaitGroup
	n                           int
	depth, busy, lagRecs, lagNS float64
}

const gaugeEvery = 2 * time.Millisecond

func (w *world) startSampler() *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{})}
	g.done.Add(1)
	go func() {
		defer g.done.Done()
		var st metrics.ServerStats
		var rs metrics.ReplStats
		tick := time.NewTicker(gaugeEvery)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
			}
			w.srv.MetricsSnapshot(&st)
			var depth, busy int64
			for _, sh := range st.Shards {
				depth += sh.QueueDepth
				busy += sh.InFlight
			}
			g.depth += float64(depth)
			g.busy += float64(busy) / float64(len(st.Shards))
			if w.ship != nil {
				w.ship.ReplSnapshot(&rs)
				g.lagRecs += float64(rs.LagRecs)
				g.lagNS += float64(rs.LagNS)
			}
			g.n++
		}
	}()
	return g
}

func (g *gaugeSampler) finish() {
	close(g.stop)
	g.done.Wait()
	if g.n > 0 {
		n := float64(g.n)
		g.depth, g.busy, g.lagRecs, g.lagNS = g.depth/n, g.busy/n, g.lagRecs/n, g.lagNS/n
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of the traced interval
// from two probes and the gauge averages.
func layerMetrics(a, b *probe, g *gaugeSampler) map[string]float64 {
	m := map[string]float64{}
	ops := float64(b.ops - a.ops)
	// Gets counts every GET, on the fast lane or through the pipeline.
	var fast, retries, parks, falls, touches, gets uint64
	for i := range b.srv.Shards {
		x, y := &a.srv.Shards[i], &b.srv.Shards[i]
		fast += y.FastGets - x.FastGets
		retries += y.FastRetries - x.FastRetries
		parks += y.FastParks - x.FastParks
		falls += y.FastFallbacks - x.FastFallbacks
		touches += y.Touches - x.Touches
		gets += y.Gets - x.Gets
	}
	kgets := float64(gets) / 1000
	m["server.fast_get_pct"] = 100 * ratio(float64(fast), float64(gets))
	m["server.fast_retry_per_kget"] = ratio(float64(retries), kgets)
	m["server.fast_park_per_kget"] = ratio(float64(parks), kgets)
	m["server.fast_fallback_per_kget"] = ratio(float64(falls), kgets)
	m["server.touch_per_kget"] = ratio(float64(touches), kgets)
	m["server.queue_depth_avg"] = g.depth
	m["server.shard_busy_pct"] = 100 * g.busy
	m["server.resps_per_batch"] = ratio(float64(b.srv.Reqs-a.srv.Reqs), float64(b.srv.Batches-a.srv.Batches))
	req := b.obs.Hists[obs.HReqLatency].Sub(&a.obs.Hists[obs.HReqLatency])
	m["server.req_us_mean"] = req.Mean() / 1e3
	m["server.req_p99_us"] = float64(req.Quantile(0.99)) / 1e3
	m["server.req_p999_us"] = float64(req.Quantile(0.999)) / 1e3

	m["kv.hit_pct"] = 100 * ratio(float64(b.hits-a.hits), float64(b.gets-a.gets))

	cnt := func(k obs.Kind) float64 { return float64(b.obs.Counts[k] - a.obs.Counts[k]) }
	mean := func(h obs.HistKind) float64 {
		d := b.obs.Hists[h].Sub(&a.obs.Hists[h])
		return d.Mean()
	}
	m["core.fase_per_op"] = ratio(cnt(obs.KFASE), ops)
	m["core.boundaries_per_fase"] = ratio(cnt(obs.KBoundary), cnt(obs.KFASE))
	m["core.outputs_per_region"] = mean(obs.HOutputsPerRegion)
	m["core.log_bytes_per_fase"] = mean(obs.HLogBytesPerFASE)
	m["core.region_ns_mean"] = mean(obs.HRegionNS)
	m["core.lock_acq_per_op"] = ratio(cnt(obs.KLockAcq), ops)

	m["nvm.fences_per_op"] = ratio(float64(b.dev.Fences-a.dev.Fences), ops)
	m["nvm.flushes_per_op"] = ratio(float64(b.dev.Flushes-a.dev.Flushes), ops)
	m["nvm.stores_per_op"] = ratio(float64(b.dev.Stores-a.dev.Stores), ops)
	m["nvm.ntstores_per_op"] = ratio(float64(b.dev.NTStores-a.dev.NTStores), ops)
	// User payload: a SET carries an 8-byte key and an 8-byte value, a
	// DELETE an 8-byte key.
	userBytes := 16*float64(b.sets-a.sets) + 8*float64(b.dels-a.dels)
	m["nvm.flush_bytes_per_user_byte"] = ratio(float64(b.dev.Flushes-a.dev.Flushes)*nvm.LineSize, userBytes)
	m["nvm.fence_ns_mean"] = mean(obs.HFenceNS)
	commits := float64(b.gc.Solo-a.gc.Solo) + float64(b.gc.ServedFASEs-a.gc.ServedFASEs)
	m["nvm.gc_fases_per_fence"] = mean(obs.HFASEsPerFence)
	m["nvm.gc_combined_pct"] = 100 * ratio(float64(b.gc.Combined-a.gc.Combined), commits)
	m["nvm.gc_dwell_per_epoch"] = ratio(float64(b.gc.DwellRounds-a.gc.DwellRounds), float64(b.gc.Epochs-a.gc.Epochs))

	m["nvalloc.alloc_per_kop"] = ratio(cnt(obs.KAlloc), ops/1000)
	m["nvalloc.free_per_kop"] = ratio(cnt(obs.KFree), ops/1000)
	m["nvalloc.refill_per_kop"] = ratio(cnt(obs.KRefill), ops/1000)

	recs := float64(b.repl.Records - a.repl.Records)
	m["replica.records_per_write"] = ratio(recs, float64(b.writes-a.writes))
	m["replica.bytes_per_record"] = ratio(float64(b.repl.Bytes-a.repl.Bytes), recs)
	m["replica.lag_records_avg"] = g.lagRecs
	m["replica.lag_us_avg"] = g.lagNS / 1e3
	m["replica.acked_pct"] = 100 * ratio(float64(b.repl.AckedRecs-a.repl.AckedRecs), recs)
	m["replica.degraded"] = float64(b.repl.Degraded - a.repl.Degraded)

	m["runtime.sched_p99_us"] = schedQuantileUS(a, b, 0.99)
	m["runtime.gc_per_s"] = ratio(float64(b.gcCycles-a.gcCycles), float64(b.monoNS-a.monoNS)/1e9)
	m["host.steal_pct"] = 100 * ratio(float64(b.stealTicks-a.stealTicks), float64(b.cpuTicks-a.cpuTicks))
	return m
}

// kvTimes holds the exact durations of direct store calls, per kind.
type kvTimes struct {
	get, set, del, getFast []uint32
}

// directKV replays ops of the workload's stream as direct, timed Store
// calls on the spare thread, bypassing the server: the kv layer's own
// cost per call. GETs are timed on both the FASE path and the fast
// lane. A mix without DELETEs times a DELETE of each GET's key and
// restores the key untimed, so every kind has samples. The store is
// modified, so this runs only after every check on the world.
func (w *world) directKV(stream []uint32, base uint64, spans *spanLog, parent int32) kvTimes {
	var kt kvTimes
	st, th := w.primary.store, w.spare
	var v uint64
	var ok bool
	timed := func(kind uint16, fn func()) uint32 {
		t0 := now()
		var t1, t2 int64
		th.Exec(func() {
			t1 = now()
			fn()
			t2 = now()
		})
		t3 := now()
		if id := spans.add(spanCoreExec, parent, t0, t3); id >= 0 {
			spans.add(kind, id, t1, t2)
		}
		return latNS(t2 - t1)
	}
	val := uint64(1 << 61)
	for _, op := range stream {
		kind, idx := unpackOp(op)
		k0, k1, sh := keyWords(st, base+uint64(idx))
		switch kind {
		case opGet:
			kt.get = append(kt.get, timed(spanKVGet, func() { v, ok = st.Get(th, sh, k0, k1) }))
			t0 := now()
			st.GetFast(sh, k0, k1)
			t1 := now()
			spans.add(spanKVGetFast, parent, t0, t1)
			kt.getFast = append(kt.getFast, latNS(t1-t0))
			if w.wl.delPct == 0 && ok {
				kt.del = append(kt.del, timed(spanKVDel, func() { st.Del(th, sh, k0, k1) }))
				th.Exec(func() { st.Set(th, sh, k0, k1, v) })
			}
		case opSet:
			val++
			kt.set = append(kt.set, timed(spanKVSet, func() { st.Set(th, sh, k0, k1, val) }))
		case opDel:
			kt.del = append(kt.del, timed(spanKVDel, func() { st.Del(th, sh, k0, k1) }))
		}
	}
	return kt
}

// median returns the median of xs in microseconds (xs is sorted).
func medianUS(xs []uint32) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[len(xs)/2]) / 1e3
}

// itemsPerBucket is the mean hash-chain length across the store.
func itemsPerBucket(st server.Store, buckets int) float64 {
	var items uint64
	for i := 0; i < st.NumShards(); i++ {
		items += st.Count(i)
	}
	return float64(items) / float64(st.NumShards()*buckets)
}
