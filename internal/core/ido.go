// Package core implements the iDO runtime (the paper's primary
// contribution): failure atomicity for lock-delineated FASEs via
// idempotent-region logging and recovery-by-resumption.
//
// Per-thread state lives in an iDO_Log in NVM (Fig. 3): a packed
// recovery_pc identifying the current idempotent region, a register file
// (intRF) holding the region's logged inputs, and a lock_array of indirect
// lock holder addresses. At each region boundary the runtime executes the
// three-step protocol of §III-A with exactly two persist fences:
//
//  1. write back the ending region's outputs (register slots, plus any
//     heap/stack lines the region dirtied) — fence;
//  2. update recovery_pc to the new region — fence;
//  3. execute the new region.
//
// Lock acquire and release each take a single persist fence thanks to
// indirect locking (§III-B). Recovery (§III-C) re-acquires each crashed
// thread's locks, restores its register file, jumps to the interrupted
// region's entry (a registered resume closure standing in for the
// compiler's recovery_pc), and runs forward to the end of the FASE.
//
// Crash-ordering invariants maintained by this implementation:
//
//   - recovery_pc != 0  ⇔  the thread is mid-FASE and must be resumed.
//   - The FASE's data lines are fenced durable before recovery_pc is
//     cleared, and recovery_pc is fenced clear before lock_array slots
//     are cleared at the final release; so a nonzero recovery_pc always
//     finds its locks still recorded.
//   - Lock-array slots are zeroed on release and fenced before the mutex
//     is handed to another thread, so one holder address never appears
//     live in two logs.
//   - Resumption may re-execute the lock acquire that ends a region or
//     the release that begins one; Lock and Unlock detect this from the
//     lock_array mirror and skip the duplicate operation (the paper's
//     instrumented lock library behaves the same way — this is also what
//     makes the "robbed lock" window of §III-B benign).
package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ido-nvm/ido/internal/lineset"
	"github.com/ido-nvm/ido/internal/locks"
	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/obs"
	"github.com/ido-nvm/ido/internal/persist"
	"github.com/ido-nvm/ido/internal/region"
)

// iDO_Log layout (byte offsets within the 64-aligned per-thread log).
// The first cache line holds the list link, thread id, recovery_pc, and
// the lock-slot bitmap, so step 2 of the boundary protocol is one CLWB.
const (
	logNext     = 0  // next log in the global list
	logThreadID = 8  // registering thread's id
	logPC       = 16 // recovery_pc packed with nOutputs (0 => not in a FASE)
	logLockBits = 24 // live-slot bitmask for the lock array
	rfBase      = 64 // intRF: MaxOutputs register slots
	numSlots    = 16 // lock_array capacity
)

// The boundary record ("stage") holds the most recent boundary's
// (register, value) pairs. It is published atomically with recovery_pc
// (the pair count rides in the packed pc word) and folded into the fixed
// intRF slots by the NEXT boundary's step 1 — so a crash between a
// boundary's two fences can never leave a live-in slot clobbered while
// recovery_pc still points at the region that needs it. The real compiler
// obtains the same guarantee by extending live ranges so a region never
// redefines its own register inputs (§IV-A(c)); lacking a register
// allocator, we double-buffer the last record instead, at the same fence
// count.

// pcPack packs a region ID, an output count, and the active boundary-
// record buffer into one 8-byte word so a single atomic NVM write
// publishes all three (region IDs must fit 48 bits). The two record
// buffers ping-pong: a boundary writes the inactive buffer, so the record
// the current recovery_pc points at is never mutated — a crash (or a
// spontaneous cache write-back) mid-boundary cannot tear it.
func pcPack(regionID uint64, n, buf int) uint64 {
	return regionID | uint64(n)<<48 | uint64(buf)<<56
}

func pcUnpack(w uint64) (regionID uint64, n, buf int) {
	return w & (1<<48 - 1), int(w >> 48 & 0xFF), int(w >> 56 & 1)
}

// Config tunes the runtime.
type Config struct {
	// Coalesce enables persist coalescing (§IV-B): register outputs are
	// packed eight to a cache line so one write-back covers them all.
	// When false each register slot sits on its own line — the ablation
	// configuration.
	Coalesce bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config { return Config{Coalesce: true} }

// Runtime is the iDO failure-atomicity runtime.
type Runtime struct {
	cfg Config
	reg *region.Region
	lm  *locks.Manager

	rfStride uint64 // 8 when coalescing, 64 when not
	logSize  int

	mu      sync.Mutex
	threads []*Thread
	nextID  int
}

// New creates an iDO runtime with the given configuration.
func New(cfg Config) *Runtime {
	rt := &Runtime{cfg: cfg}
	rt.rfStride = 8
	if !cfg.Coalesce {
		rt.rfStride = nvm.LineSize
	}
	rt.logSize = int(rt.stageBase(1)) + persist.MaxOutputs*16
	return rt
}

// stageBase returns the offset of boundary-record buffer buf (0 or 1).
func (rt *Runtime) stageBase(buf int) uint64 {
	return rt.laBase() + numSlots*8 + uint64(buf)*persist.MaxOutputs*16
}

// Name implements persist.Runtime.
func (rt *Runtime) Name() string { return "ido" }

func (rt *Runtime) laBase() uint64 {
	return rfBase + persist.MaxOutputs*rt.rfStride
}

// Attach implements persist.Runtime.
func (rt *Runtime) Attach(reg *region.Region, lm *locks.Manager) error {
	rt.reg = reg
	rt.lm = lm
	return nil
}

// NewThread registers a worker: it allocates and persists an iDO_Log and
// links it onto the global log list anchored at the region's iDO_head
// root (Fig. 3).
func (rt *Runtime) NewThread() (persist.Thread, error) {
	rt.mu.Lock()
	id := rt.nextID
	rt.nextID++
	rt.mu.Unlock()

	raw, err := rt.reg.Alloc.Alloc(rt.logSize + nvm.LineSize)
	if err != nil {
		return nil, fmt.Errorf("ido: allocating log: %w", err)
	}
	addr := (raw + nvm.LineSize - 1) &^ (nvm.LineSize - 1)
	dev := rt.reg.Dev
	dev.Store64(addr+logThreadID, uint64(id))
	dev.Store64(addr+logPC, 0)
	dev.Store64(addr+logLockBits, 0)

	// Deferred unlock: the device calls below panic with nvm.CrashSignal
	// under armed injection, and the mutex must not survive the unwind.
	rt.mu.Lock()
	defer rt.mu.Unlock()
	head := rt.reg.Root(region.RootIDOHead)
	dev.Store64(addr+logNext, head)
	dev.PersistRange(addr, uint64(rt.logSize))
	dev.Fence()
	rt.reg.SetRoot(region.RootIDOHead, addr) // fenced internally
	t := &Thread{rt: rt, id: id, log: addr}
	t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("ido/t%d", id))
	t.initAddrTables()
	rt.threads = append(rt.threads, t)
	return t, nil
}

// Thread is a worker's iDO handle. It is used by one goroutine at a time,
// with hand-off synchronized.
type Thread struct {
	rt  *Runtime
	id  int
	log uint64

	lockDepth    int
	durableDepth int
	slots        [numSlots]uint64 // volatile mirror of the lock_array
	bits         uint64           // volatile mirror of logLockBits
	recovering   bool             // set on recovery threads

	dirty          lineset.Set      // heap lines dirtied in the current region
	staged         []persist.RegVal // pairs in the current boundary record
	outScratch     [persist.MaxOutputs]persist.RegVal
	curBuf         int // active boundary-record buffer
	storesInRegion int
	inRegion       bool

	// rc is this thread's event ring; nil when tracing is off (every
	// method on a nil *obs.Ring is a one-compare no-op).
	rc           *obs.Ring
	curRegion    uint64 // region ID of the open region, for trace labels
	regionT0     int64  // tracer clock at the open of the current region
	faseT0       int64  // tracer clock at FASE entry
	faseLogBytes uint64 // log payload written during the current FASE

	// Precomputed NVM addresses for the boundary hot path: the fixed
	// intRF slot per register, and the pair base per stage-record slot in
	// each ping-pong buffer. Both are fully determined by the log address
	// and the configured stride, so Boundary writes through a table
	// lookup instead of re-deriving the stride math per output.
	rfAddr   [persist.MaxOutputs]uint64
	pairAddr [2][persist.MaxOutputs]uint64

	stats persist.RuntimeStats
}

// initAddrTables fills the per-slot address tables once the log address
// is known (thread registration and recovery both construct Threads).
func (t *Thread) initAddrTables() {
	for r := 0; r < persist.MaxOutputs; r++ {
		t.rfAddr[r] = t.log + rfBase + uint64(r)*t.rt.rfStride
	}
	for buf := 0; buf < 2; buf++ {
		sb := t.log + t.rt.stageBase(buf)
		for i := 0; i < persist.MaxOutputs; i++ {
			t.pairAddr[buf][i] = sb + uint64(i)*16
		}
	}
}

var _ persist.Thread = (*Thread)(nil)

// ID implements persist.Thread.
func (t *Thread) ID() int { return t.id }

// Exec implements persist.Thread; iDO never re-executes speculatively.
func (t *Thread) Exec(op func()) { op() }

func (t *Thread) inFASE() bool { return t.lockDepth > 0 || t.durableDepth > 0 }

func (t *Thread) trackLine(addr uint64) {
	t.dirty.Add(addr &^ (nvm.LineSize - 1))
}

// Store64 performs a persistent store. Inside a FASE the dirtied line is
// tracked so the enclosing region's boundary can write it back (§III-A:
// "writes-back of variables accessed via pointers are tracked at run time
// and then written back at the end of the region"). No per-store log is
// written — that is the point of iDO.
func (t *Thread) Store64(addr, val uint64) {
	t.rt.reg.Dev.Store64(addr, val)
	if t.inFASE() {
		t.trackLine(addr)
		t.storesInRegion++
		t.stats.Stores++
	}
}

// Load64 reads persistent data.
func (t *Thread) Load64(addr uint64) uint64 { return t.rt.reg.Dev.Load64(addr) }

// closeRegion accounts for the region that just ended.
func (t *Thread) closeRegion() {
	if !t.inRegion {
		return
	}
	b := t.storesInRegion
	if b >= persist.HistStores {
		b = persist.HistStores - 1
	}
	t.stats.StoresPerRegion[b]++
	t.stats.Regions++
	if t.rc != nil {
		now := t.rc.Clock()
		t.rc.Span(obs.KRegion, t.curRegion, uint64(t.storesInRegion), t.regionT0)
		t.rc.Observe(obs.HRegionNS, uint64(now-t.regionT0))
		t.rc.Observe(obs.HRegionStores, uint64(t.storesInRegion))
	}
	t.inRegion = false
	t.storesInRegion = 0
}

// persistDirty writes back every line the current region dirtied in one
// bulk call and orders the write-backs with a persist fence (§III-A
// step 1; same write-back, fence, and crash-injection event counts as
// per-line CLWB plus Fence). With group commit enabled the flush+fence
// may be performed by an elected leader merging several threads'
// commits into a single fence drain.
func (t *Thread) persistDirty() {
	t.rt.reg.Dev.PersistBatch(t.dirty.Lines())
	t.dirty.Reset()
}

// OutputScratch implements persist.OutputScratcher: callers assemble
// each Boundary output set in this thread-owned buffer, so spreading it
// into the variadic Boundary never heap-allocates. Boundary itself only
// reads the slice (it copies into t.staged), so reuse across calls is
// safe.
func (t *Thread) OutputScratch() []persist.RegVal { return t.outScratch[:0] }

// Boundary ends the current idempotent region and opens the one
// identified by regionID, logging the ending region's OutputSet into the
// intRF. Each register has a fixed slot, so live-ins of the still-current
// region are never clobbered before recovery_pc advances. This is the
// three-step protocol of §III-A; it costs exactly two persist fences.
func (t *Thread) Boundary(regionID uint64, outputs ...persist.RegVal) {
	if len(outputs) > persist.MaxOutputs {
		panic(fmt.Sprintf("ido: region %#x logs %d outputs (max %d)",
			regionID, len(outputs), persist.MaxOutputs))
	}
	if regionID == 0 || regionID >= 1<<48 {
		panic(fmt.Sprintf("ido: region ID %#x out of range", regionID))
	}
	dev := t.rt.reg.Dev
	t.closeRegion()

	// Step 1a: fold the previous boundary record into the fixed intRF
	// slots (their lines are flushed below, under this boundary's fence).
	for _, o := range t.staged {
		sa := t.rfAddr[o.Reg]
		dev.Store64(sa, o.Val)
		t.trackLine(sa)
	}
	// Step 1b: write this boundary's record into the INACTIVE buffer —
	// with persist coalescing the pairs pack two to a cache line, so up
	// to eight registers cost a handful of contiguous write-backs
	// (§IV-B) — plus any heap lines the ending region dirtied; fence.
	// Pair addresses come from the precomputed per-slot table.
	buf := 1 - t.curBuf
	for i, o := range outputs {
		if o.Reg < 0 || o.Reg >= persist.MaxOutputs {
			panic(fmt.Sprintf("ido: register slot %d out of range", o.Reg))
		}
		pa := t.pairAddr[buf][i]
		dev.Store64(pa, uint64(o.Reg))
		dev.Store64(pa+8, o.Val)
	}
	if n := len(outputs); n > 0 {
		if t.rt.cfg.Coalesce {
			dev.PersistRange(t.pairAddr[buf][0], uint64(n)*16)
		} else {
			for i := 0; i < n; i++ {
				dev.CLWB(t.pairAddr[buf][i])
				dev.CLWB(t.pairAddr[buf][i] + 8)
			}
		}
	}
	t.persistDirty() // flush + fence, group-commit batchable

	// Step 2: publish the new recovery_pc (record count and buffer ride
	// in the packed word, so record and pc switch atomically), fence.
	// From here on a crash resumes at regionID's entry. The publish is a
	// non-temporal store: a cached store plus write-back would leave a
	// window where the crash adversary decides whether the pc reached the
	// persistence domain — at a FASE's entry boundary that would let the
	// adversary pick between "FASE never started" and "FASE resumes",
	// breaking the adversary-independence of recovery (§III-C) that the
	// chaos harness's persist-all oracle checks exactly.
	dev.StoreNT(t.log+logPC, pcPack(regionID, len(outputs), buf))
	dev.FenceBatch()
	t.curBuf = buf
	t.staged = append(t.staged[:0], outputs...)

	t.stats.LoggedEntries++
	logBytes := uint64(len(outputs))*8 + 8
	t.stats.LoggedBytes += logBytes
	t.faseLogBytes += logBytes
	t.stats.OutputsPerRegion[len(outputs)]++
	if t.rc != nil {
		t.rc.Emit(obs.KBoundary, regionID, uint64(len(outputs)))
		t.rc.Observe(obs.HOutputsPerRegion, uint64(len(outputs)))
		t.regionT0 = t.rc.Clock()
	}
	t.curRegion = regionID
	t.inRegion = true
	// Step 3 is the caller executing the region's code.
}

// slotOf probes only the slots the bits mask marks live (slots[i] != 0
// exactly when bit i is set), instead of scanning all numSlots entries.
func (t *Thread) slotOf(holder uint64) int {
	for m := t.bits; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if t.slots[i] == holder {
			return i
		}
	}
	return -1
}

// freeSlot returns the lowest empty lock_array slot, or -1 when full.
func (t *Thread) freeSlot() int {
	if i := bits.TrailingZeros64(^t.bits); i < numSlots {
		return i
	}
	return -1
}

// Lock acquires l and records its indirect holder in the lock_array with
// a single persist fence (§III-B). When resumption re-executes an acquire
// the thread already performed (the lock is already in the mirror), the
// call is a no-op.
func (t *Thread) Lock(l *locks.Lock) {
	if t.slotOf(l.Holder()) >= 0 {
		if !t.recovering {
			panic("ido: recursive Lock outside recovery")
		}
		return // resumption re-executing an already-held acquire
	}
	l.Acquire()
	slot := t.freeSlot()
	if slot < 0 {
		panic("ido: lock_array overflow (more than 16 locks held)")
	}
	dev := t.rt.reg.Dev
	t.slots[slot] = l.Holder()
	t.bits |= 1 << uint(slot)
	slotAddr := t.log + t.rt.laBase() + uint64(slot)*8
	dev.Store64(slotAddr, l.Holder())
	dev.Store64(t.log+logLockBits, t.bits)
	dev.CLWB(slotAddr)
	dev.CLWB(t.log + logLockBits)
	dev.Fence() // the single fence
	if t.rc != nil {
		if t.lockDepth == 0 && t.durableDepth == 0 {
			t.faseT0 = t.rc.Clock()
			t.faseLogBytes = 0
		}
		t.rc.Emit(obs.KLockAcq, l.Holder(), 0)
	}
	t.lockDepth++
}

// Unlock releases l. For an inner release (other locks remain held) it
// clears the lock_array entry with a single fence. For the FASE's final
// release it first makes the FASE's effects durable, then clears
// recovery_pc (fence), and only then clears the slot and releases — so
// recovery_pc != 0 always implies the locks are still recorded.
//
// When resumption re-executes a release the crashed thread had already
// completed (the lock is absent from the mirror), the call is a no-op.
func (t *Thread) Unlock(l *locks.Lock) {
	slot := t.slotOf(l.Holder())
	if slot < 0 {
		if t.recovering {
			return // release already completed before the crash
		}
		panic("ido: unlocking a lock this thread does not hold")
	}
	dev := t.rt.reg.Dev
	last := t.lockDepth == 1 && t.durableDepth == 0
	if last {
		t.closeRegion()
		t.persistDirty()
		// Single-event clear, matching the Boundary publish (see Step 2
		// there): the pc transition must not depend on the adversary.
		dev.StoreNT(t.log+logPC, 0)
		dev.FenceBatch()
		t.stats.FASEs++
		if t.rc != nil {
			t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
			t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
		}
	}
	t.slots[slot] = 0
	t.bits &^= 1 << uint(slot)
	slotAddr := t.log + t.rt.laBase() + uint64(slot)*8
	dev.Store64(slotAddr, 0)
	dev.Store64(t.log+logLockBits, t.bits)
	dev.CLWB(slotAddr)
	dev.CLWB(t.log + logLockBits)
	if !last {
		dev.Fence() // the single fence; the final release already fenced
	}
	t.rc.Emit(obs.KLockRel, l.Holder(), 0)
	t.lockDepth--
	l.Release()
}

// BeginDurable opens a programmer-delineated FASE (§II-B). The caller
// must issue a Boundary immediately after, exactly as the compiler
// inserts one after each lock acquire.
func (t *Thread) BeginDurable() {
	if t.rc != nil && t.durableDepth == 0 && t.lockDepth == 0 {
		t.faseT0 = t.rc.Clock()
		t.faseLogBytes = 0
	}
	t.durableDepth++
}

// EndDurable closes a programmer-delineated FASE, persisting its effects
// and clearing recovery_pc.
func (t *Thread) EndDurable() {
	if t.durableDepth == 0 {
		panic("ido: EndDurable without BeginDurable")
	}
	last := t.durableDepth == 1 && t.lockDepth == 0
	if last {
		dev := t.rt.reg.Dev
		t.closeRegion()
		t.persistDirty()
		dev.StoreNT(t.log+logPC, 0)
		dev.FenceBatch()
		t.stats.FASEs++
		if t.rc != nil {
			t.rc.Span(obs.KFASE, t.faseLogBytes, 0, t.faseT0)
			t.rc.Observe(obs.HLogBytesPerFASE, t.faseLogBytes)
		}
	}
	t.durableDepth--
}

// Stats implements persist.Runtime. Call only while worker threads are
// quiescent.
func (rt *Runtime) Stats() persist.RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out persist.RuntimeStats
	for _, t := range rt.threads {
		out.Add(&t.stats)
	}
	return out
}

// Recover implements §III-C: walk the persistent log list, spawn a
// recovery thread per interrupted log, re-acquire locks, barrier, restore
// each thread's register file, and resume each interrupted region forward
// to the end of its FASE. Logs that show no interrupted FASE but have
// stale lock slots (the benign robbed-lock window: a crash between mutex
// acquisition and the post-acquire boundary) are scrubbed.
func (rt *Runtime) Recover(rr *persist.ResumeRegistry) (persist.RecoveryStats, error) {
	start := time.Now()
	dev := rt.reg.Dev
	attempt := nvm.EnterRecovery()
	defer nvm.ExitRecovery()
	// With a recovery-scoped crash budget armed, run the single-goroutine
	// restore path: goroutine interleaving would make "the Nth device
	// event of recovery" a different event on every run, and the chaos
	// harness needs schedules to replay bit-for-bit. The serial path
	// preserves the §III-C barrier by finishing every restore/re-acquire
	// before the first resume.
	serial := nvm.RecoveryCrashArmed()
	var stats persist.RecoveryStats
	stats.Attempt = attempt
	stats.Audit = &obs.RecoveryAudit{Runtime: rt.Name(), Attempt: attempt}
	rc := dev.Tracer().ThreadRing("ido/recover")
	scanT0 := rc.Clock()

	type pending struct {
		t        *Thread
		regionID uint64
		n, buf   int
		bits     uint64
		ai       int // index into stats.Audit.Threads
		rf       []uint64
		locks    []uint64
		acquired int // locks actually re-acquired (slot order)
		err      error
	}
	var work []*pending

	// The restore/re-acquire phase of each interrupted thread overlaps
	// the serial log walk: as soon as a log entry is decoded, a goroutine
	// reads that thread's lock slots and register file and re-acquires
	// its locks while the walk moves on to the next entry. The acq group
	// is the §III-C barrier — every lock re-acquired before any thread
	// resumes — and the gate additionally holds resumption until the walk
	// has seen every log, preserving the all-threads-recovered-together
	// contract. Each lock was held by at most one crashed thread, so the
	// acquisitions cannot deadlock.
	var acq, done sync.WaitGroup
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	var abort atomic.Bool

	// A crash injected while this frame is driving the walk (or the
	// serial restore) must not strand launched goroutines: they block on
	// <-gate after their acq phase, and a panic that unwinds past this
	// frame would leak them — and the locks they re-acquired — forever.
	// Flag the abort, open the gate so they drain down the release path,
	// and re-raise.
	defer func() {
		if r := recover(); r != nil {
			abort.Store(true)
			openGate()
			done.Wait()
			panic(r)
		}
	}()

	// restore reads one interrupted thread's lock slots and register file
	// from its log and re-acquires its locks. Panics propagate to the
	// caller (each call path wraps it per its own death semantics).
	restore := func(w *pending) {
		t, p := w.t, w.t.log
		held := 0
		for i := 0; i < numSlots; i++ {
			if w.bits&(1<<uint(i)) != 0 {
				h := dev.Load64(p + rt.laBase() + uint64(i)*8)
				if h == 0 {
					continue
				}
				t.slots[i] = h
				t.bits |= 1 << uint(i)
				w.locks = append(w.locks, h)
				held++
			}
		}
		// Restore the register file: fixed slots overlaid with the
		// current boundary record (whose count rides in the pc word).
		w.rf = make([]uint64, persist.MaxOutputs)
		for i := range w.rf {
			w.rf[i] = dev.Load64(p + rfBase + uint64(i)*rt.rfStride)
		}
		for i := 0; i < w.n && i < persist.MaxOutputs; i++ {
			reg := dev.Load64(p + rt.stageBase(w.buf) + uint64(i)*16)
			val := dev.Load64(p + rt.stageBase(w.buf) + uint64(i)*16 + 8)
			if reg < persist.MaxOutputs {
				w.rf[reg] = val
				t.staged = append(t.staged, persist.RegVal{Reg: int(reg), Val: val})
			}
		}
		t.curBuf = w.buf
		t.lockDepth = held
		if held == 0 {
			t.durableDepth = 1 // a programmer-delineated FASE was active
		}
		t.inRegion = true
		for s := 0; s < numSlots; s++ {
			if t.slots[s] != 0 {
				rt.lm.ByHolder(t.slots[s]).Acquire()
				w.acquired++
				t.rc.Emit(obs.KLockAcq, t.slots[s], 0)
			}
		}
	}
	// release drops the locks a failed/aborted thread actually grabbed so
	// the manager is not left poisoned for the caller's next attempt.
	// Only the first w.acquired held slots were locked — a panic can land
	// after t.slots is filled but before (or mid) the acquisition loop,
	// and releasing a never-acquired lock would be a fatal
	// unlock-of-unlocked-mutex.
	release := func(w *pending) {
		rel := w.acquired
		for s := 0; s < numSlots && rel > 0; s++ {
			if w.t.slots[s] != 0 {
				rt.lm.ByHolder(w.t.slots[s]).Release()
				rel--
			}
		}
	}
	resume := func(w *pending) {
		fn, _ := rr.Lookup(w.regionID)
		fn(w.t, w.rf)
	}

	launch := func(w *pending) {
		defer done.Done()
		func() {
			defer acq.Done()
			defer func() {
				if r := recover(); r != nil {
					w.err = fmt.Errorf("ido: restore of log %#x panicked: %v", w.t.log, r)
				}
			}()
			restore(w)
		}()
		<-gate
		if abort.Load() || w.err != nil {
			// The walk failed (or this restore did): nothing resumes.
			release(w)
			return
		}
		defer func() {
			if r := recover(); r != nil {
				w.err = fmt.Errorf("ido: resume of region %#x panicked: %v", w.regionID, r)
			}
		}()
		resume(w)
	}

	var walkErr error
	for p := rt.reg.Root(region.RootIDOHead); p != 0; p = dev.Load64(p + logNext) {
		stats.Threads++
		stats.LogEntries++
		pcWord := dev.Load64(p + logPC)
		regionID, n, buf := pcUnpack(pcWord)
		bits := dev.Load64(p + logLockBits)

		t := &Thread{rt: rt, id: int(dev.Load64(p + logThreadID)), log: p, recovering: true}
		t.rc = dev.Tracer().ThreadRing(fmt.Sprintf("ido/t%d-rec", t.id))
		t.initAddrTables()
		audit := obs.ThreadAudit{ThreadID: t.id, LogAddr: p, Action: obs.AuditIdle, RecoveryPC: pcWord}
		rt.mu.Lock()
		rt.threads = append(rt.threads, t)
		if t.id >= rt.nextID {
			rt.nextID = t.id + 1
		}
		rt.mu.Unlock()

		if regionID == 0 {
			// Not mid-FASE. Scrub any stale slots (robbed-lock window).
			if bits != 0 {
				for i := 0; i < numSlots; i++ {
					dev.Store64(p+rt.laBase()+uint64(i)*8, 0)
				}
				dev.Store64(p+logLockBits, 0)
				dev.PersistRange(p+rt.laBase(), numSlots*8)
				dev.CLWB(p + logLockBits)
				dev.Fence()
				audit.Action = obs.AuditScrubbed
			}
			stats.Audit.Add(audit)
			continue
		}

		if _, ok := rr.Lookup(regionID); !ok {
			walkErr = fmt.Errorf("ido: no resume entry registered for region %#x (thread %d)", regionID, t.id)
			stats.Audit.Add(audit)
			break
		}
		audit.Action = obs.AuditResumed
		audit.RegionID = regionID
		audit.WordsRestored = persist.MaxOutputs + n // intRF + staged overlay
		stats.Audit.Add(audit)
		w := &pending{
			t: t, regionID: regionID, n: n, buf: buf, bits: bits,
			ai: len(stats.Audit.Threads) - 1,
		}
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
		// thread, on this goroutine in walk order. An injected CrashSignal
		// propagates — the crash kills recovery mid-flight and the chaos
		// harness settles and re-recovers; any other panic becomes an
		// error after the acquired locks are dropped.
		guard := func(label string, w *pending, f func()) (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, crash := r.(nvm.CrashSignal); crash {
						panic(r)
					}
					w.err = fmt.Errorf("ido: %s panicked: %v", label, r)
				}
			}()
			f()
			return w.err == nil
		}
		var firstErr error
		if walkErr == nil {
			for _, w := range work {
				if !guard(fmt.Sprintf("restore of log %#x", w.t.log), w, func() { restore(w) }) {
					firstErr = w.err
					break
				}
			}
		}
		var locksTotal uint64
		for _, w := range work {
			stats.Audit.Threads[w.ai].Locks = w.locks
			locksTotal += uint64(len(w.locks))
		}
		rc.Span(obs.KRecovery, obs.PhaseReacquire, locksTotal, scanT0)
		if walkErr != nil || firstErr != nil {
			for _, w := range work {
				release(w)
			}
			if walkErr != nil {
				return stats, walkErr
			}
			return stats, firstErr
		}
		resumeT0 := rc.Clock()
		for _, w := range work {
			if !guard(fmt.Sprintf("resume of region %#x", w.regionID), w, func() { resume(w) }) {
				return stats, w.err
			}
		}
		rc.Span(obs.KRecovery, obs.PhaseResume, uint64(len(work)), resumeT0)
		stats.Resumed = len(work)
		stats.Elapsed = time.Since(start)
		return stats, nil
	}

	acq.Wait()
	// Fold what the restore goroutines found into the audit, in walk
	// order; the slice is stable now that the walk has finished, and the
	// locks are final once the acq barrier has passed.
	var locksTotal uint64
	for _, w := range work {
		stats.Audit.Threads[w.ai].Locks = w.locks
		locksTotal += uint64(len(w.locks))
	}
	// The re-acquire span starts at scanT0 deliberately: it runs
	// concurrently with the walk, which is the point of the overlap.
	rc.Span(obs.KRecovery, obs.PhaseReacquire, locksTotal, scanT0)
	if walkErr != nil {
		abort.Store(true)
	}
	resumeT0 := rc.Clock()
	openGate()
	done.Wait()
	if walkErr != nil {
		return stats, walkErr
	}
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

var _ persist.Runtime = (*Runtime)(nil)

// LogEntryInfo is a read-only view of one per-thread iDO log, for
// post-mortem inspection (cmd/idolog).
type LogEntryInfo struct {
	LogAddr  uint64
	ThreadID int
	RegionID uint64           // 0 when the thread was not mid-FASE
	Staged   []persist.RegVal // the boundary record published with the pc
	Locks    []uint64         // holder addresses recorded in the lock array
}

// InspectLogs walks a region's iDO log list without mutating anything.
// It uses the default log layout (the one New(DefaultConfig()) produces).
func InspectLogs(reg *region.Region) []LogEntryInfo {
	rt := New(DefaultConfig())
	dev := reg.Dev
	var out []LogEntryInfo
	for p := reg.Root(region.RootIDOHead); p != 0; p = dev.Load64(p + logNext) {
		e := LogEntryInfo{LogAddr: p, ThreadID: int(dev.Load64(p + logThreadID))}
		regionID, n, buf := pcUnpack(dev.Load64(p + logPC))
		e.RegionID = regionID
		if regionID != 0 {
			for i := 0; i < n && i < persist.MaxOutputs; i++ {
				reg := dev.Load64(p + rt.stageBase(buf) + uint64(i)*16)
				val := dev.Load64(p + rt.stageBase(buf) + uint64(i)*16 + 8)
				e.Staged = append(e.Staged, persist.RegVal{Reg: int(reg), Val: val})
			}
		}
		bits := dev.Load64(p + logLockBits)
		for i := 0; i < numSlots; i++ {
			if bits&(1<<uint(i)) != 0 {
				if h := dev.Load64(p + rt.laBase() + uint64(i)*8); h != 0 {
					e.Locks = append(e.Locks, h)
				}
			}
		}
		out = append(out, e)
	}
	return out
}
