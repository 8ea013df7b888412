package nvm

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ido-nvm/ido/internal/obs"
)

// Group commit: cross-thread flush/fence combining for FASE commit
// epilogues.
//
// Every FASE commit pays at least one FlushLines+Fence (iDO §III-A
// step 1) and one more fence after publishing its recovery_pc. Because
// persist fences serialize at the memory controller (Fence holds the
// device-global fence token while it drains), N threads committing
// concurrently pay N back-to-back fence drains. The combiner amortizes
// them: committing threads publish their dirty-line batch to a
// fixed-size slot ring, one thread is elected leader for the epoch, and
// the leader performs every published batch's write-backs followed by a
// single merged Fence on behalf of all of them. Waiters spin briefly on
// their own slot's state word (crash-aware, exactly like the device's
// line-lock spin), then park on the combiner's condvar so an
// oversubscribed host spends its cycles on the leader and on committers
// still working toward their publish point, not on busy waiters.
//
// # Protocol
//
// A slot moves through free → claimed → published → done, and only its
// owner moves it out of done (back to free). The owner:
//
//  1. claims a free slot (CAS), writes its line batch into the slot,
//     ticks the crash-injection budget (the "combiner publish" crash
//     point), and publishes (store, release);
//  2. spins: if its slot is done, the batch is durable — reset the slot
//     and return; otherwise try to become leader (CAS on the leader
//     flag). A publisher that wins leadership with its slot still
//     pending serves the whole ring: it collects every published slot,
//     optionally dwells WindowNS to let stragglers join, issues the
//     collected write-backs (FlushLines per batch — identical per-line
//     events, ticks, and latency to the direct path), then one merged
//     Fence, advances the epoch, and marks every served slot done.
//
// Progress needs no third party: the set of threads that can be waiting
// on a batch is exactly the set that published into it, and one of them
// always either finds its slot done or wins the leader CAS, so the
// protocol is deadlock-free no matter what FASE locks the waiters hold
// (line locks are never held across a wait; the leader flag is only
// held while actively serving).
//
// # Crash consistency
//
// The combiner adds no persistent state — slots, the leader flag, and
// the epoch counter are volatile and die with the cache (Device.Crash
// resets them). A waiter returns from PersistBatch/FenceBatch only
// after the merged Fence covering its batch completed, so every
// caller-visible ordering guarantee of the direct FlushLines+Fence path
// is preserved; the merged fence is simply one fence ordering more
// write-backs. If the leader (or anyone) crashes mid-batch, every
// waiter dies too (the crash-aware spin panics once the injected crash
// fires), no waiter has published its "committed" NT store yet, and
// each FASE in the batch recovers via its own log — precisely the
// direct-path crash states. See DESIGN.md for the proof sketch.

// GroupCommitConfig enables the cross-thread fence combiner on a device.
type GroupCommitConfig struct {
	// Enabled turns the combiner on. When false, PersistBatch and
	// FenceBatch degrade to exactly FlushLines+Fence / Fence.
	Enabled bool

	// ForceCombine disables the solo fast path, forcing every
	// PersistBatch/FenceBatch through the slot ring even when the
	// caller is the only committer. The chaos harness sets it so
	// single-threaded crash schedules exercise the combiner
	// deterministically; benchmarks leave it false.
	ForceCombine bool

	// WindowNS, when positive, makes an elected leader dwell that many
	// nanoseconds after its first slot scan to let straggling
	// committers join the batch before the merged fence. Zero means
	// the leader serves whatever one extra scan finds — lowest
	// latency, combining only what is already concurrent.
	WindowNS int
}

// Slot states. Only the owner moves free→claimed→published and
// done→free; only the epoch leader moves published→done.
const (
	gcFree = iota
	gcClaimed
	gcPublished
	gcDone
)

// gcSlots is the slot-ring size; committers beyond it spin for a free
// slot (with far more slots than the machine has cores, that spin is
// all but unreachable).
const gcSlots = 64

// gcSlot is one publication slot, padded so two slots never share a
// cache line.
type gcSlot struct {
	state atomic.Uint32
	_     [4]byte
	lines []uint64 // owner-written while claimed, leader-read while published
	_     [32]byte
}

// gcSpinRounds is how long a publisher spins on its slot before parking
// on the combiner's condvar. Long enough to ride out a leader that is
// already fencing; short enough that an oversubscribed host isn't spent
// scheduling busy waiters instead of the leader and the stragglers it is
// dwelling for.
const gcSpinRounds = 64

// gcDwellSliceNS is the nominal slice of batch window consumed per dwell
// round: WindowNS/gcDwellSliceNS bounds how many times a dwelling leader
// yields for stragglers.
const gcDwellSliceNS = 100

// combiner is the per-device group-commit state. All fields are
// volatile: Crash zeroes them.
type combiner struct {
	cfg     GroupCommitConfig
	pending atomic.Int64  // committers currently inside persist()
	leader  atomic.Uint32 // epoch leader flag (0 free, 1 held)
	epoch   atomic.Uint64 // merged fences completed
	mu      sync.Mutex    // guards parking; see gcPersist
	wake    *sync.Cond    // broadcast on slot-done and leader-release
	slots   [gcSlots]gcSlot

	// Host-side observability counters. Unlike the protocol state above
	// they are not part of the simulated persistence domain, so reset()
	// leaves them alone: the admin plane reads them cumulatively across
	// crashes, the same contract as the device's striped stat counters.
	solo     atomic.Uint64 // commits taken on the solo fast path
	leads    atomic.Uint64 // leader elections that served a batch
	combined atomic.Uint64 // commits whose fence another thread's batch absorbed
	fases    atomic.Uint64 // total slots served across all merged fences
	dwell    atomic.Uint64 // dwell rounds leaders spent holding an epoch open
}

func newCombiner(cfg GroupCommitConfig) *combiner {
	c := &combiner{cfg: cfg}
	c.wake = sync.NewCond(&c.mu)
	return c
}

// reset clears all volatile combiner state after a crash. Callers are
// dead by protocol when the device crashes, so plain stores suffice.
func (c *combiner) reset() {
	if c == nil {
		return
	}
	c.pending.Store(0)
	c.leader.Store(0)
	c.mu.Lock()
	for i := range c.slots {
		c.slots[i].state.Store(gcFree)
		c.slots[i].lines = nil
	}
	// Liveness backstop: any waiter still parked (its leader died in the
	// crash) wakes, observes the device generation move, and dies too.
	c.wake.Broadcast()
	c.mu.Unlock()
}

// Epoch returns the number of merged group-commit fences completed.
func (d *Device) Epoch() uint64 {
	if d.gc == nil {
		return 0
	}
	return d.gc.epoch.Load()
}

// GroupCommitEnabled reports whether the fence combiner is active.
func (d *Device) GroupCommitEnabled() bool { return d.gc != nil }

// GCStats is a cumulative snapshot of combiner activity: how often the
// solo fast path fired, how many merged fences were led, how many
// commits rode another thread's fence, the total FASEs those merged
// fences served (Epochs>0 ⇒ FASEs/Epochs is the realized amortization
// factor), and how many dwell rounds leaders spent holding a batch
// window open. These are host-side observability counters — they
// survive Crash, unlike the combiner's protocol state.
type GCStats struct {
	Epochs      uint64 // merged group-commit fences completed
	Leads       uint64 // leader elections that served a batch (== Epochs)
	Solo        uint64 // commits taken on the solo fast path
	Combined    uint64 // commits absorbed into another thread's fence
	ServedFASEs uint64 // slots served across all merged fences
	DwellRounds uint64 // leader dwell yields while an epoch was held open
}

// GroupCommitStats reports cumulative combiner activity; all-zero when
// the combiner is disabled. Safe to call concurrently with commits.
func (d *Device) GroupCommitStats() GCStats {
	c := d.gc
	if c == nil {
		return GCStats{}
	}
	return GCStats{
		Epochs:      c.epoch.Load(),
		Leads:       c.leads.Load(),
		Solo:        c.solo.Load(),
		Combined:    c.combined.Load(),
		ServedFASEs: c.fases.Load(),
		DwellRounds: c.dwell.Load(),
	}
}

// PersistBatch makes the cache lines in lines durable: it write-backs
// every line and orders them with a persist fence before returning.
// With group commit disabled (or a solo committer) it is exactly
// FlushLines(lines) followed by Fence; with the combiner active the
// flushes and the fence may be performed by an elected leader on behalf
// of a batch of committers, amortizing the fence drain. lines must stay
// unmodified until PersistBatch returns.
func (d *Device) PersistBatch(lines []uint64) {
	if d.gc == nil {
		d.FlushLines(lines)
		d.Fence()
		return
	}
	d.gcPersist(lines)
}

// FenceBatch is a persist fence that may be combined with concurrent
// committers' fences. With group commit disabled (or a solo committer)
// it is exactly Fence.
func (d *Device) FenceBatch() {
	if d.gc == nil {
		d.Fence()
		return
	}
	d.gcPersist(nil)
}

// gcSpinCheck is the crash-aware backoff taken every 64 iterations of a
// combiner spin, mirroring lockLine: once an injected crash has fired
// every waiter dies, and on a single-P schedule the serving leader
// needs the processor to make progress.
func (d *Device) gcSpinCheck() {
	if d.crashFired() {
		panic(CrashSignal{})
	}
	runtime.Gosched()
}

// gcPersist runs one commit's flush+fence through the combiner.
// lines == nil is a fence-only commit.
func (d *Device) gcPersist(lines []uint64) {
	c := d.gc
	gen := d.gen.Load()
	n := c.pending.Add(1)
	defer c.pending.Add(-1)
	if n == 1 && !c.cfg.ForceCombine {
		// Solo fast path: no other committer is inside the combiner,
		// so there is nothing to amortize — take the direct path and
		// keep single-thread latency at parity (one atomic add/sub).
		c.solo.Add(1)
		d.FlushLines(lines)
		d.Fence()
		return
	}

	// Claim a free slot.
	var s *gcSlot
	for i := 0; ; i++ {
		if sl := &c.slots[i%gcSlots]; sl.state.Load() == gcFree &&
			sl.state.CompareAndSwap(gcFree, gcClaimed) {
			s = sl
			break
		}
		if i&63 == 63 {
			d.gcSpinCheck()
		}
	}
	s.lines = lines
	// The combiner-publish crash point: the batch is about to become
	// visible to a leader. A crash here (or any time before the merged
	// fence) leaves this FASE recoverable via its own log.
	d.crashTick()
	s.state.Store(gcPublished)

	// Wait for a leader to serve the slot, volunteering when no one is.
	// A publisher spins briefly, then parks: the leader performs every
	// slot-done and leader-release transition under mu with a broadcast,
	// so a parked waiter can miss neither its own completion nor the
	// leadership becoming free.
	ledSelf := false
	for i := 0; ; i++ {
		if s.state.Load() == gcDone {
			break
		}
		if c.leader.Load() == 0 && c.leader.CompareAndSwap(0, 1) {
			if s.state.Load() != gcDone {
				// If an injected crash kills the leader mid-serve, the
				// leader flag must not die held: a parked waiter's condvar
				// predicate (leader == 1, slot not done) would then never
				// change and no broadcast would ever come — the waiter
				// sleeps through the crash instead of dying with it. The
				// deferred release turns a leader death into a release +
				// broadcast, so woken waiters observe the fired injection
				// and propagate the CrashSignal themselves.
				abort := true
				func() {
					defer func() {
						if abort {
							c.mu.Lock()
							c.leader.Store(0)
							c.wake.Broadcast()
							c.mu.Unlock()
						}
					}()
					d.gcLead()
					abort = false
				}()
				ledSelf = true
			}
			c.mu.Lock()
			c.leader.Store(0)
			c.wake.Broadcast()
			c.mu.Unlock()
			if s.state.Load() != gcDone {
				// gcLead serves every published slot, ours included.
				panic("nvm: group-commit leader left own slot unserved")
			}
			break
		}
		if i < gcSpinRounds {
			if i&63 == 63 {
				d.gcSpinCheck()
			}
			continue
		}
		c.mu.Lock()
		for s.state.Load() != gcDone && c.leader.Load() == 1 &&
			!d.crashedSince(gen) {
			c.wake.Wait()
		}
		c.mu.Unlock()
		if d.crashedSince(gen) {
			panic(CrashSignal{})
		}
	}
	if !ledSelf {
		// This commit's fence was absorbed into another thread's
		// merged fence.
		c.combined.Add(1)
		if tr := d.trc.Load(); tr != nil {
			tr.DevEmit(obs.KFenceCombined, c.epoch.Load(), 0)
		}
	}
	s.lines = nil
	s.state.Store(gcFree)
}

// gcLead serves one epoch: collect every published slot, optionally
// dwell for stragglers, write back all collected batches, issue one
// merged fence, and mark the served slots done. Called with the leader
// flag held.
func (d *Device) gcLead() {
	c := d.gc
	var served uint64 // bitmap of slots in this batch
	collect := func() {
		for i := range c.slots {
			if served&(1<<uint(i)) == 0 && c.slots[i].state.Load() == gcPublished {
				served |= 1 << uint(i)
			}
		}
	}
	collect()
	if w := c.cfg.WindowNS; w > 0 {
		// Batch window: hold the epoch open so committers that arrive
		// within it amortize into this fence. The dwelling leader is
		// idle — on hardware its wait overlaps the other cores'
		// progress — so the simulator charges no leader spin here; the
		// stragglers' own modeled work is the cost, and each yield hands
		// them the processor to perform it (on a single-P host one yield
		// runs every runnable committer up to its publish point). The
		// dwell ends early when a whole round gathered nobody new and
		// no committer is still en route to publishing.
		for rounds := (w + gcDwellSliceNS - 1) / gcDwellSliceNS; rounds > 0; rounds-- {
			if d.crashFired() {
				panic(CrashSignal{})
			}
			c.dwell.Add(1)
			before := bits.OnesCount64(served)
			runtime.Gosched()
			collect()
			if bits.OnesCount64(served) == before &&
				uint64(before) >= uint64(c.pending.Load()) {
				break
			}
		}
	}
	collect()

	// Write back every batch. FlushLines charges the same per-line
	// events, crash ticks, and latency as the direct path, so grouped
	// and direct mode differ only in fence count.
	var batches, nlines uint64
	for i := range c.slots {
		if served&(1<<uint(i)) != 0 {
			batches++
			if ln := c.slots[i].lines; len(ln) > 0 {
				nlines += uint64(len(ln))
				d.FlushLines(ln)
			}
		}
	}
	d.Fence() // the merged fence: one drain covers the whole batch
	c.epoch.Add(1)
	c.leads.Add(1)
	c.fases.Add(batches)
	if tr := d.trc.Load(); tr != nil {
		tr.DevEmit(obs.KBatchCommit, batches, nlines)
		tr.Observe(obs.HFASEsPerFence, batches)
	}
	c.mu.Lock()
	for i := range c.slots {
		if served&(1<<uint(i)) != 0 {
			c.slots[i].state.Store(gcDone)
		}
	}
	c.wake.Broadcast()
	c.mu.Unlock()
}
