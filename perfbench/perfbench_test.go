package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/server"
)

func testDeployment() *deployment {
	return &deployment{deviceMiB: 64, flushNS: 50, fenceNS: 400, ntstoreNS: 150,
		gcWindowNS: 2000, shards: 16, buckets: 4096}
}

// checkOutput asserts that every metric of defs is printed by name with
// its unit, in the human lines and in the final JSON line, and that no
// request failed.
func checkOutput(t *testing.T, r *result, traced bool, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	r.print(&buf, traced)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   bool   `json:"correct"`
		Attempted uint64 `json:"attempted"`
		Failed    uint64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
		t.Fatalf("correct=%v failed=%d attempted=%d\n%s", last.Correct, last.Failed, last.Attempted, out)
	}
	inJSON := 0
	for _, m := range defs {
		got, ok := last.Metrics[m.name]
		switch {
		case m.diagnostic && ok:
			t.Errorf("diagnostic %s is in the JSON result", m.name)
		case !m.diagnostic && (!ok || got.Unit != m.unit):
			t.Errorf("metric %s: JSON entry %+v, want unit %s", m.name, got, m.unit)
		case ok:
			inJSON++
		}
		found := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) >= 3 && f[0] == m.name && f[2] == m.unit {
				found = true
			}
		}
		if !found {
			t.Errorf("metric %s [%s] not printed", m.name, m.unit)
		}
	}
	if len(last.Metrics) != inJSON {
		t.Errorf("JSON has %d metrics, want %d", len(last.Metrics), inJSON)
	}
	if !strings.Contains(out, "fail_pct                                 0.0000 %") {
		t.Errorf("fail_pct is not printed as 0\n%s", out)
	}
}

// TestSmoke runs each workload shape briefly and checks that every
// end-to-end metric is printed with its unit and nothing failed,
// including the standby-convergence and durability phases.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			r, err := timedRun(wl, testDeployment(), 7, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			checkOutput(t, r, false, endToEnd)
			for _, m := range endToEnd {
				if m.name != "mem_mb" && r.metrics[m.name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, r.metrics[m.name])
				}
			}
		})
	}
}

// TestSmokeTraced checks the traced run's per-layer metrics and span
// file on the write mix.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	r, err := tracedRun(workloads[1], testDeployment(), 7, 400*time.Millisecond, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkOutput(t, r, true, perLayer)
	for _, name := range []string{"nvm.fences_per_op", "core.fase_per_op", "nvalloc.alloc_per_kop", "kv.set_us", "core.recover_ms"} {
		if r.metrics[name] <= 0 {
			t.Errorf("%s = %v on the write mix, want > 0", name, r.metrics[name])
		}
	}
}

// corruptConn alters the first digit of every GET value it passes to
// the client, leaving the framing intact.
type corruptConn struct {
	net.Conn
	n int
}

func (c *corruptConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	buf := b[:n]
	for i := 0; ; {
		j := bytes.Index(buf[i:], []byte("VALUE "))
		if j < 0 {
			break
		}
		j += i
		nl := bytes.Index(buf[j:], []byte("\r\n"))
		if nl < 0 || j+nl+2 >= n {
			break
		}
		d := j + nl + 2
		if buf[d] == '9' {
			buf[d] = '8'
		} else {
			buf[d]++
		}
		c.n++
		i = d
	}
	return n, err
}

// TestLatRecQuantiles checks the recorders' quantiles against a sorted
// copy of the same latencies, across the counted and the long range.
func TestLatRecQuantiles(t *testing.T) {
	rs := newLatRecs(2)
	rng := rand.New(rand.NewPCG(1, 2))
	var all []int64
	for i := 0; i < 20000; i++ {
		ns := rng.Int64N(latDirectNS / 4)
		if i%50 == 0 {
			ns = latDirectNS - 1 + rng.Int64N(4*latDirectNS)
		}
		rs[i%2].add(ns)
		all = append(all, ns)
	}
	slices.Sort(all)
	qs := []float64{0.001, 0.5, 0.9, 0.98, 0.99, 0.999, 1}
	got, n := quantilesUS(rs, qs...)
	if n != len(all) {
		t.Fatalf("n = %d, want %d", n, len(all))
	}
	for i, q := range qs {
		want := float64(all[int(math.Ceil(q*float64(n)))-1]) / 1e3
		if got[i] != want {
			t.Errorf("q%.3f = %v us, want %v us", q, got[i], want)
		}
	}
}

// TestCorruptReplyCounted shows a reply value that contradicts the
// connection's model is counted as a failure.
func TestCorruptReplyCounted(t *testing.T) {
	d := testDeployment()
	wl := workloads[0]
	w, err := build(wl, d, genStreams(wl, 3), nil, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var wrapped []*corruptConn
	w.wrap = func(nc net.Conn) net.Conn {
		c := &corruptConn{Conn: nc}
		wrapped = append(wrapped, c)
		return c
	}
	if err := w.measure(w.clients, newInterval(conns), depth, 100*time.Millisecond, nil, -1); err != nil {
		t.Fatal(err)
	}
	var s driveStats
	for _, c := range w.clients {
		s.add(c.st)
	}
	corrupted := 0
	for _, c := range wrapped {
		corrupted += c.n
	}
	if corrupted == 0 || s.mismatch != uint64(corrupted) {
		t.Fatalf("corrupted %d replies, counted %d mismatches", corrupted, s.mismatch)
	}
	r := newResult()
	r.countDrive(w.clients)
	if r.failed != s.mismatch {
		t.Fatalf("result counts %d failed, want %d", r.failed, s.mismatch)
	}
}

// TestLostAckedWriteCounted shows the durability phase counts an
// acknowledged write missing after recovery as a failure.
func TestLostAckedWriteCounted(t *testing.T) {
	lost := 0
	tamper := func(st server.Store, th persist.Thread, cs []*client) {
		for _, c := range cs {
			for i := range c.hist {
				h := &c.hist[i]
				if n := len(h.Ops); n > 1 && h.Acked == n && !h.Ops[n-1].Del {
					k0, k1, sh := keyWords(st, c.base+uint64(i))
					th.Exec(func() { st.Del(th, sh, k0, k1) })
					lost++
					return
				}
			}
		}
	}
	r, err := crashCheck(testDeployment(), 5, 100*time.Millisecond, nil, -1, tamper)
	if err != nil {
		t.Fatal(err)
	}
	if lost != 1 || r.failed != 1 {
		t.Fatalf("deleted %d acked writes, durability check counted %d failures", lost, r.failed)
	}
	if r.load.failed() != 0 {
		t.Fatalf("tracked load before the crash: %d failures", r.load.failed())
	}
}
