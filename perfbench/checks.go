package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/ido-nvm/ido/internal/core"
	"github.com/ido-nvm/ido/internal/kv/memcache"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/metrics"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/server"
)

// checkResult is one untimed correctness phase: how many items it
// checked and how many were wrong. Both count in the run's totals.
type checkResult struct {
	checked uint64
	failed  uint64
}

// checkStandby drains the replication lag and requires the standby to
// hold exactly the primary's key set and values, and the primary to
// hold exactly what the clients' models say.
func (w *world) checkStandby() (checkResult, error) {
	var r checkResult
	var rs metrics.ReplStats
	for deadline := time.Now().Add(replyTimeout); ; time.Sleep(time.Millisecond) {
		w.ship.ReplSnapshot(&rs)
		if rs.LagRecs == 0 {
			break
		}
		if time.Now().After(deadline) {
			return r, fmt.Errorf("replication lag stuck at %d records", rs.LagRecs)
		}
	}
	// Every record is durably applied; stop the standby so it is quiet
	// while its image is read.
	w.sb.Stop()
	<-w.sbDone
	w.sb = nil
	sth, err := w.standby.rt.NewThread()
	if err != nil {
		return r, err
	}
	pst, sst, pth := w.primary.store, w.standby.store, w.spare
	for _, c := range w.clients {
		for i, want := range c.vals {
			k := c.base + uint64(i)
			k0, k1, sh := keyWords(pst, k)
			var pv, sv uint64
			var pok, sok bool
			pth.Exec(func() { pv, pok = pst.Get(pth, sh, k0, k1) })
			sth.Exec(func() { sv, sok = sst.Get(sth, sh, k0, k1) })
			r.checked++
			switch {
			case pok != (want != 0) || (pok && pv != want):
				r.failed++
				c.fail("primary key %d: present=%v val=%d, model holds %d", k, pok, pv, want)
			case sok != pok || sv != pv:
				r.failed++
				c.fail("standby key %d: present=%v val=%d, primary present=%v val=%d", k, sok, sv, pok, pv)
			}
		}
	}
	logFails("standby convergence", w.clients)
	return r, nil
}

// crashResult is the durability phase's outcome.
type crashResult struct {
	checkResult
	load      driveStats // the tracked load before the crash
	recoverMS float64    // runtime attach + Recover, excluding the device sweep
}

// crashCheck builds a fresh mc-write-evict-shaped world (memcache,
// Fig. 5c mix, uniform keys over twice the prefilled set, the same
// device and layout), drives tracked load, kills it with an injected
// crash mid-flight, recovers as a restarted process would, and requires
// every key's recovered state to be explainable by its history: every
// acknowledged write is durable, unacknowledged ones applied in order
// or not at all. The LRU watermark is off here, so that an absent key
// cannot hide behind an eviction.
//
// Crash injection is process-global and arming it changes how lock
// waiters spin, so this must never overlap a timed phase. tamper, when
// non-nil, edits the recovered store before the check (tests use it to
// lose an acknowledged write).
func crashCheck(d *deployment, seed int64, loadFor time.Duration, spans *spanLog, parent int32,
	tamper func(st server.Store, th persist.Thread, cs []*client)) (crashResult, error) {
	var r crashResult
	wl := *workloads[1]
	wl.maxItems = 0
	nvm.ArmCrash(1 << 60)
	defer nvm.ArmCrash(-1)
	w, err := build(&wl, d, genStreams(&wl, seed), nil, spans, parent)
	if err != nil {
		return r, err
	}
	for _, c := range w.clients {
		c.startTracking()
	}
	sp := spans.open(spanCrashLoad, parent)
	done := make(chan error, 1)
	go func() { done <- w.runClients(w.clients, depth, 1<<62, 0) }()
	time.Sleep(loadFor)
	nvm.TriggerCrash()
	select {
	case <-w.srv.Crashed():
	case <-time.After(replyTimeout):
		return r, fmt.Errorf("server did not observe the injected crash")
	}
	w.srv.Close()
	<-done // the clients' transport fails: in-flight requests are unacknowledged
	spans.close(sp)
	for _, c := range w.clients {
		r.load.add(c.st)
	}
	// Requests in flight at the crash are expected losses, not failures.
	r.load.timedOut = 0
	logFails("crash load", w.clients)
	nvm.ArmCrash(-1)

	sp = spans.open(spanCrashSweep, parent)
	reg2, err := w.primary.reg.Crash(nvm.CrashRandom, rand.New(rand.NewSource(seed)))
	spans.close(sp)
	if err != nil {
		return r, err
	}
	sp = spans.open(spanRecover, parent)
	t0 := time.Now()
	lm2 := locks.NewManager(reg2)
	rt2 := core.New(core.DefaultConfig())
	if err := rt2.Attach(reg2, lm2); err != nil {
		return r, err
	}
	env := &memcache.Env{Reg: reg2, LM: lm2}
	st2, err := server.AttachMcStore(env)
	if err != nil {
		return r, err
	}
	rr := persist.NewResumeRegistry()
	st2.Register(rr)
	if _, err := rt2.Recover(rr); err != nil {
		return r, err
	}
	r.recoverMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	spans.close(sp)

	sp = spans.open(spanVerify, parent)
	defer spans.close(sp)
	th, err := rt2.NewThread()
	if err != nil {
		return r, err
	}
	if tamper != nil {
		tamper(st2, th, w.clients)
	}
	for _, c := range w.clients {
		for i := range c.hist {
			h := &c.hist[i]
			k := c.base + uint64(i)
			k0, k1, sh := keyWords(st2, k)
			var v uint64
			var ok bool
			th.Exec(func() { v, ok = st2.Get(th, sh, k0, k1) })
			r.checked++
			if !h.Explainable(ok, v) {
				r.failed++
				c.fail("key %d after recovery: present=%v val=%d, acked %d of %d ops", k, ok, v, h.Acked, len(h.Ops))
			}
		}
	}
	logFails("durability", w.clients)
	if r.load.completed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: durability: no request was acknowledged before the crash")
		r.failed++
	}
	return r, nil
}
