package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
)

// Span names: one per call the benchmark makes into a layer.
const (
	spanRun uint16 = iota
	spanSetup
	spanSetupDevice
	spanSetupStore
	spanSetupStandby
	spanSetupPrefill
	spanMeasure
	spanRequest // one sampled client request: send to reply (server layer)
	spanConverge
	spanDirect
	spanCoreExec // persist.Thread.Exec around one kv call (core layer)
	spanKVGet
	spanKVSet
	spanKVDel
	spanKVGetFast
	spanCrash
	spanCrashLoad
	spanCrashSweep // nvm: device crash settling the persistence domain
	spanRecover    // core: Attach + Recover
	spanVerify
	nSpanNames
)

var spanNames = [nSpanNames]string{
	"run", "setup", "setup.device", "setup.store", "setup.standby", "setup.prefill",
	"measure", "server.request", "check.standby", "direct",
	"core.exec", "kv.get", "kv.set", "kv.del", "kv.getfast",
	"crash", "crash.load", "nvm.crash", "core.recover", "check.durable",
}

// spanSample keeps one request span in this many completions.
const spanSample = 16

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped.
const maxSpans = 1 << 18

type span struct {
	name       uint16
	parent     int32 // index of the causing span, -1 for the root
	start, end int64
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 1<<12)} }

// add records a finished span and returns its index (-1 if dropped).
// Safe on a nil log.
func (l *spanLog) add(name uint16, parent int32, start, end int64) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name, parent, start, end})
	return int32(len(l.spans) - 1)
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(name uint16, parent int32) int32 {
	t := now()
	return l.add(name, parent, t, t)
}

func (l *spanLog) close(i int32) {
	if l == nil || i < 0 {
		return
	}
	t := now()
	l.mu.Lock()
	l.spans[i].end = t
	l.mu.Unlock()
}

// write stores the spans as Chrome trace_event JSON (chrome://tracing,
// Perfetto), one complete event per span with its id and parent id.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range l.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		tid := 0
		if s.name == spanRequest {
			tid = 1
		}
		enc.Encode(ev{
			Name: spanNames[s.name], Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]any{"id": i, "parent": s.parent},
		})
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
