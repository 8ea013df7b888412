package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The admin plane: a plain net/http mux over the snapshot layer. It
// runs on its own listener (idoserve -admin), fully isolated from the
// serving data path — a scrape or a trace capture never touches a
// connection goroutine or a shard lock beyond the atomic loads the
// snapshot performs.

// Health is the process's readiness state machine. Liveness (/healthz)
// is implicit — the process answers — while readiness (/readyz) tracks
// the store lifecycle: not ready while shards attach and recovery
// replays, ready once serving, not ready again after a device crash
// wedges the server. Zero value: not ready, "starting".
type Health struct {
	mu     sync.Mutex
	ready  bool
	reason string
}

// NewHealth returns a not-ready Health with the given reason.
func NewHealth(reason string) *Health {
	return &Health{reason: reason}
}

// Set transitions readiness, recording why.
func (h *Health) Set(ready bool, reason string) {
	h.mu.Lock()
	h.ready, h.reason = ready, reason
	h.mu.Unlock()
}

// Ready reports the current state and its reason.
func (h *Health) Ready() (bool, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.reason == "" && !h.ready {
		return false, "starting"
	}
	return h.ready, h.reason
}

// NotReadyOn flips h not-ready with the given reason when ch closes —
// the hook that ties /readyz to the server's Crashed channel.
func (h *Health) NotReadyOn(ch <-chan struct{}, reason string) {
	go func() {
		<-ch
		h.Set(false, reason)
	}()
}

// Admin serves the introspection endpoints. It keeps the previous
// scrape's snapshot so /metrics can publish interval gauges (req/s,
// fences/op, latency quantiles) without any background goroutine.
type Admin struct {
	C *Collector
	H *Health

	mu   sync.Mutex
	prev *Snapshot
}

// NewAdmin builds the admin plane over a collector and health state.
func NewAdmin(c *Collector, h *Health) *Admin {
	return &Admin{C: c, H: h}
}

// Handler returns the admin mux:
//
//	/metrics        Prometheus text (cumulative counters + interval gauges)
//	/healthz        liveness: always 200 while the process runs
//	/readyz         readiness: 200 serving / 503 with the reason
//	/debug/snapshot the full Snapshot as JSON
//	/debug/trace    windowed Chrome trace capture (?ms=N, default 200)
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", a.readyz)
	mux.HandleFunc("/debug/snapshot", a.snapshot)
	mux.HandleFunc("/debug/trace", a.trace)
	return mux
}

func (a *Admin) metrics(w http.ResponseWriter, _ *http.Request) {
	cur := a.C.Snapshot()
	var d *Delta
	a.mu.Lock()
	if a.prev != nil {
		d = new(Delta)
		Diff(a.prev, cur, d)
	}
	a.prev = cur
	a.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, cur, d)
}

func (a *Admin) readyz(w http.ResponseWriter, _ *http.Request) {
	ready, reason := a.H.Ready()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: %s\n", reason)
		return
	}
	fmt.Fprintf(w, "ready: %s\n", reason)
}

func (a *Admin) snapshot(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(a.C.Snapshot())
}

// trace captures a live window: rotate the rings to discard the stale
// backlog, let the window elapse, rotate again and export exactly the
// window's events as Chrome trace JSON. Bounded to 5s so a stray query
// cannot pin the handler.
func (a *Admin) trace(w http.ResponseWriter, r *http.Request) {
	tr := a.C.Tracer
	if tr == nil {
		http.Error(w, "tracing is not enabled on this process", http.StatusServiceUnavailable)
		return
	}
	ms := 200
	if q := r.URL.Query().Get("ms"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "ms must be a positive integer", http.StatusBadRequest)
			return
		}
		ms = v
	}
	if ms > 5000 {
		ms = 5000
	}
	tr.Rotate() // discard everything before the window
	time.Sleep(time.Duration(ms) * time.Millisecond)
	events := tr.Rotate()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", "attachment; filename=\"ido-trace.json\"")
	tr.WriteChromeTraceEvents(w, events)
}
