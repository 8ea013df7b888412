package vm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/compile"
	"github.com/ido-nvm/ido/internal/ir"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// Recover completes every FASE a crash interrupted, per the machine's
// mode (§III-C for iDO; the analogous store-granularity resumption for
// JUSTDO). It walks the persistent log list, re-creates a thread per
// interrupted log, re-acquires locks via the indirect holders, restores
// the register file from the per-register NVM slots, jumps to the logged
// location, and executes to the end of the FASE.
//
// Fidelity note: JUSTDO was designed for machines with nonvolatile
// caches (§I); its single-slot ⟨pc, addr, value⟩ log can tear under the
// volatile-cache crash adversary. JUSTDO recovery is therefore exact
// under nvm.CrashPersistAll (the persistent-cache model the original
// paper assumes) — which is how the tests exercise it — while iDO
// recovery is exact under every crash mode.
func (m *Machine) Recover() (persist.RecoveryStats, error) {
	start := time.Now()
	dev := m.Reg.Dev
	attempt := dev.Injector().EnterRecovery()
	defer dev.Injector().ExitRecovery()
	// With a recovery-scoped crash budget armed, run the deterministic
	// single-goroutine restore path (see core.Runtime.Recover): the Nth
	// recovery event must be the same event on every replay, and the
	// §III-C barrier is preserved by finishing every restore/re-acquire
	// before the first resume.
	serial := dev.Injector().RecoveryCrashArmed()
	var stats persist.RecoveryStats
	stats.Attempt = attempt
	stats.Audit = &obs.RecoveryAudit{Runtime: "vm-" + m.Mode.String(), Attempt: attempt}
	if m.Mode == ModeOrigin {
		return stats, nil
	}
	rc := dev.Tracer().ThreadRing("vm-" + m.Mode.String() + "/recover")
	scanT0 := rc.Clock()

	type pending struct {
		t        *Thread
		pc       uint64
		bits     uint64
		ai       int // index into stats.Audit.Threads
		locks    []uint64
		acquired int // locks actually re-acquired (slot order)
		err      error
	}
	var work []*pending

	// Each interrupted thread's lock-slot restore and re-acquisition runs
	// in a goroutine launched mid-walk, overlapping the serial log-list
	// scan. The acq group is the recovery barrier — every lock
	// re-acquired before any thread resumes — and the gate holds
	// resumption until the walk has seen every log. Each lock was held by
	// at most one crashed thread, so the acquisitions cannot deadlock.
	var acq, done sync.WaitGroup
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	var abort atomic.Bool

	// A crash injected while this frame is driving the walk must not
	// strand launched goroutines at <-gate: flag the abort, open the gate
	// so they drain down the release path, and re-raise.
	defer func() {
		if r := recover(); r != nil {
			abort.Store(true)
			openGate()
			done.Wait()
			panic(r)
		}
	}()

	restore := func(w *pending) {
		t, p := w.t, w.t.log
		held := 0
		for i := 0; i < numLk; i++ {
			if w.bits&(1<<uint(i)) != 0 {
				h := dev.Load64(p + lLocks + uint64(i)*8)
				if h == 0 {
					continue
				}
				t.slots[i] = h
				t.bits |= 1 << uint(i)
				w.locks = append(w.locks, h)
				held++
			}
		}
		t.lockDepth = held
		if held == 0 {
			t.durDepth = 1
		}
		for s := 0; s < numLk; s++ {
			if t.slots[s] != 0 {
				m.LM.ByHolder(t.slots[s]).Acquire()
				w.acquired++
				t.rc.Emit(obs.KLockAcq, t.slots[s], 0)
			}
		}
	}
	// release drops only the first w.acquired held slots: a panic can
	// land after t.slots is filled but before (or mid) the acquisition
	// loop, and releasing a never-acquired lock would be a fatal
	// unlock-of-unlocked-mutex.
	release := func(w *pending) {
		rel := w.acquired
		for s := 0; s < numLk && rel > 0; s++ {
			if w.t.slots[s] != 0 {
				m.LM.ByHolder(w.t.slots[s]).Release()
				rel--
			}
		}
	}

	launch := func(w *pending) {
		defer done.Done()
		func() {
			defer acq.Done()
			defer func() {
				if r := recover(); r != nil {
					w.err = fmt.Errorf("vm: restore of log %#x panicked: %v", w.t.log, r)
				}
			}()
			restore(w)
		}()
		<-gate
		if abort.Load() || w.err != nil {
			release(w)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				w.err = fmt.Errorf("vm: resume at pc %#x panicked: %v", w.pc, r)
			}
		}()
		w.err = m.resume(w.t, w.pc, &stats.Audit.Threads[w.ai])
	}

	for p := m.Reg.Root(region.RootIDOHead); p != 0; p = dev.Load64(p + lNext) {
		stats.Threads++
		stats.LogEntries++
		pc := dev.Load64(p + lPC)
		bits := dev.Load64(p + lBits)
		t := &Thread{
			m: m, id: int(dev.Load64(p + lThread)), log: p,
			frame: dev.Load64(p + lFrame), recovering: true,
		}
		t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("vm-%s/t%d-rec", m.Mode, t.id))
		m.mu.Lock()
		m.threads = append(m.threads, t)
		if t.id >= m.nextID {
			m.nextID = t.id + 1
		}
		m.mu.Unlock()
		audit := obs.ThreadAudit{ThreadID: t.id, LogAddr: p, Action: obs.AuditIdle, RecoveryPC: pc}

		if pc == 0 {
			if bits != 0 {
				// Robbed-lock window: scrub stale slots.
				for i := 0; i < numLk; i++ {
					dev.Store64(p+lLocks+uint64(i)*8, 0)
				}
				dev.Store64(p+lBits, 0)
				dev.PersistRange(p+lLocks, numLk*8)
				dev.CLWB(p + lBits)
				dev.Fence()
				audit.Action = obs.AuditScrubbed
			}
			stats.Audit.Add(audit)
			continue
		}

		audit.Action = obs.AuditResumed
		if m.Mode == ModeIDO {
			audit.RegionID, _, _ = vmUnpack(pc)
		} else {
			audit.Action = obs.AuditReplayed
		}
		stats.Audit.Add(audit)
		w := &pending{t: t, pc: pc, bits: bits, ai: len(stats.Audit.Threads) - 1}
		work = append(work, w)
		if !serial {
			acq.Add(1)
			done.Add(1)
			go launch(w)
		}
	}
	rc.Span(obs.KRecovery, obs.PhaseScan, stats.LogEntries, scanT0)

	if serial {
		// Deterministic path: restore every thread, then resume every
		// thread, on this goroutine in walk order. An injected
		// CrashSignal propagates (the crash kills recovery mid-flight);
		// any other panic becomes an error after acquired locks drop.
		guard := func(label string, w *pending, f func()) (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, crash := r.(nvm.CrashSignal); crash {
						panic(r)
					}
					w.err = fmt.Errorf("vm: %s panicked: %v", label, r)
				}
			}()
			f()
			return w.err == nil
		}
		var firstErr error
		for _, w := range work {
			if !guard(fmt.Sprintf("restore of log %#x", w.t.log), w, func() { restore(w) }) {
				firstErr = w.err
				break
			}
		}
		var locksTotal uint64
		for _, w := range work {
			stats.Audit.Threads[w.ai].Locks = w.locks
			locksTotal += uint64(len(w.locks))
		}
		rc.Span(obs.KRecovery, obs.PhaseReacquire, locksTotal, scanT0)
		if firstErr != nil {
			for _, w := range work {
				release(w)
			}
			return stats, firstErr
		}
		resumeT0 := rc.Clock()
		for _, w := range work {
			if !guard(fmt.Sprintf("resume at pc %#x", w.pc), w, func() {
				w.err = m.resume(w.t, w.pc, &stats.Audit.Threads[w.ai])
			}) {
				return stats, w.err
			}
		}
		rc.Span(obs.KRecovery, obs.PhaseResume, uint64(len(work)), resumeT0)
		stats.Resumed = len(work)
		stats.Elapsed = time.Since(start)
		return stats, nil
	}

	acq.Wait()
	// Fold the re-acquired locks into the audit in walk order; the slice
	// is stable now that the walk has finished.
	var locksTotal uint64
	for _, w := range work {
		stats.Audit.Threads[w.ai].Locks = w.locks
		locksTotal += uint64(len(w.locks))
	}
	// The re-acquire span starts at scanT0 deliberately: it runs
	// concurrently with the walk, which is the point of the overlap.
	rc.Span(obs.KRecovery, obs.PhaseReacquire, locksTotal, scanT0)
	resumeT0 := rc.Clock()
	openGate()
	done.Wait()
	for _, w := range work {
		if w.err != nil {
			return stats, w.err
		}
	}
	rc.Span(obs.KRecovery, obs.PhaseResume, uint64(len(work)), resumeT0)
	stats.Resumed = len(work)
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// resume restores thread state from its log and executes forward to the
// end of the interrupted FASE, recording what it restored into audit.
func (m *Machine) resume(t *Thread, pc uint64, audit *obs.ThreadAudit) error {
	dev := m.Reg.Dev
	switch m.Mode {
	case ModeIDO:
		regionID, n, buf := vmUnpack(pc)
		target, ok := m.Prog.Resolve[regionID]
		if !ok {
			return fmt.Errorf("vm: recovery_pc %#x resolves to no region", regionID)
		}
		f := m.Prog.Funcs[target.Func].F
		for r := 0; r < f.NumRegs; r++ {
			t.rf[r] = dev.Load64(t.log + lSlots + uint64(r)*8)
		}
		// Overlay the staged boundary record (published with the pc).
		sb := stageAt(t.log, buf)
		for i := 0; i < n && i < stageCap; i++ {
			reg := dev.Load64(sb + uint64(i)*16)
			val := dev.Load64(sb + uint64(i)*16 + 8)
			if reg < MaxRegs {
				t.rf[reg] = val
				t.staged = append(t.staged, persist.RegVal{Reg: int(reg), Val: val})
			}
		}
		t.curBuf = buf
		t.sp = dev.Load64(t.log + lSP)
		t.inRegion = true
		audit.WordsRestored = f.NumRegs + n // register slots + staged overlay
		t.runFrom(target.Func, f, target.Entry.Block, target.Entry.Index)
		return nil
	case ModeJUSTDO:
		// Re-perform the logged store from the record buffer the pc
		// names, then continue at the next instruction with the
		// slot-backed register file.
		buf := int(pc >> 63)
		pc &^= jdBufBit
		rec := jdRecAt(t.log, buf)
		addr := dev.Load64(rec)
		val := dev.Load64(rec + 8)
		dev.Store64(addr, val)
		dev.CLWB(addr)
		dev.Fence()
		t.jdBuf = buf
		fnIdx, blk, idx := compile.UnpackPC(pc)
		if fnIdx >= len(m.funcNames) {
			return fmt.Errorf("vm: JUSTDO pc %#x names function %d of %d", pc, fnIdx, len(m.funcNames))
		}
		name := m.funcNames[fnIdx]
		f := m.Prog.Funcs[name].F
		for r := 0; r < f.NumRegs; r++ {
			t.rf[r] = dev.Load64(t.log + lSlots + uint64(r)*8)
		}
		t.sp = dev.Load64(t.log + lSP)
		audit.WordsRestored = f.NumRegs + 1 // register slots + replayed store
		if blk >= len(f.Blocks) || idx >= len(f.Blocks[blk].Instrs) {
			return fmt.Errorf("vm: JUSTDO pc %#x out of range in %s", pc, f.Name)
		}
		// idx+1 may point one past a fall-through block's last
		// instruction; both engines continue into the next block
		// (FlatIndex lands on its first decoded instruction).
		t.runFrom(name, f, blk, idx+1)
		return nil
	}
	return fmt.Errorf("vm: mode %v cannot resume", m.Mode)
}

// runFrom resumes execution at (block, idx) on the engine the machine is
// configured for, stopping when the interrupted FASE closes (depth 0).
func (t *Thread) runFrom(name string, f *ir.Func, block, idx int) {
	if t.m.Legacy {
		t.runLegacy(f, block, idx, 0)
		return
	}
	d := t.m.code[name]
	t.exec(d, d.FlatIndex(block, idx), 0)
}
