package nvm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/ido-nvm/ido/internal/obs"
)

// TestGroupCommitLeaderCrashWakesParked: when an injected crash kills the
// serving leader, every waiter must terminate too — including one that
// already parked on the combiner's condvar before the crash fired. The
// slow flush/fence model (2 ms per event) holds the leader in its serve
// long enough for the other committer to park; the budget sweep lands the
// crash on each of the leader's serve events (first flush, second flush,
// merged fence) in turn. Before the deferred leader-release this
// deadlocked: the leader died holding the flag, no broadcast ever came,
// and the parked waiter slept through the crash.
func TestGroupCommitLeaderCrashWakesParked(t *testing.T) {
	for _, budget := range []int64{2, 3, 4} {
		t.Run(fmt.Sprintf("budget%d", budget), func(t *testing.T) {
			inj := new(Injector)
			d := New(Config{Size: 1 << 20, FlushNS: 2_000_000, FenceNS: 2_000_000,
				GroupCommit: GroupCommitConfig{Enabled: true, ForceCombine: true}, Crash: inj})
			lines := []uint64{0, 64}
			for _, ln := range lines {
				d.Store64(ln, 1)
			}
			inj.Arm(budget)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(CrashSignal); !ok {
								panic(r)
							}
						}
					}()
					d.PersistBatch(lines[i : i+1])
				}(i)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				t.Fatal("a combiner waiter outlived the leader's crash (parked forever?)")
			}
			if !inj.Fired() {
				t.Fatal("crash budget never fired: the sweep no longer covers the serve path")
			}
		})
	}
}

func gcDevice(t *testing.T, cfg GroupCommitConfig, tr *obs.Tracer) *Device {
	t.Helper()
	return New(Config{Size: 1 << 20, GroupCommit: cfg, Tracer: tr, Crash: new(Injector)})
}

// TestGroupCommitDisabledIsDirect: with the combiner off, PersistBatch
// and FenceBatch produce exactly the direct path's event counts.
func TestGroupCommitDisabledIsDirect(t *testing.T) {
	d := New(Config{Size: 1 << 20})
	if d.GroupCommitEnabled() {
		t.Fatal("combiner unexpectedly enabled")
	}
	d.Store64(0, 1)
	d.Store64(64, 2)
	d.PersistBatch([]uint64{0, 64})
	d.FenceBatch()
	st := d.Stats()
	if st.Flushes != 2 || st.Fences != 2 {
		t.Fatalf("flushes=%d fences=%d, want 2/2", st.Flushes, st.Fences)
	}
	if d.Load64(0) != 1 || d.Load64(64) != 2 {
		t.Fatal("values lost")
	}
}

// TestGroupCommitSoloFallsThrough: a solo committer with ForceCombine
// off takes the direct path — same flush and fence counts, no
// batch-commit events.
func TestGroupCommitSoloFallsThrough(t *testing.T) {
	tr := obs.New(obs.Config{})
	d := gcDevice(t, GroupCommitConfig{Enabled: true}, tr)
	for i := 0; i < 10; i++ {
		addr := uint64(i) * 64
		d.Store64(addr, uint64(i))
		d.PersistBatch([]uint64{addr})
	}
	st := d.Stats()
	if st.Flushes != 10 || st.Fences != 10 {
		t.Fatalf("flushes=%d fences=%d, want 10/10", st.Flushes, st.Fences)
	}
	if n := tr.Count(obs.KBatchCommit); n != 0 {
		t.Fatalf("solo path emitted %d batch-commit events", n)
	}
	if d.Epoch() != 0 {
		t.Fatalf("epoch=%d, want 0 (no merged fences)", d.Epoch())
	}
}

// TestGroupCommitForcedSingleThread: ForceCombine pushes even a lone
// committer through the slot ring — it elects itself leader, performs
// its own merged fence, and the data is durable.
func TestGroupCommitForcedSingleThread(t *testing.T) {
	tr := obs.New(obs.Config{})
	d := gcDevice(t, GroupCommitConfig{Enabled: true, ForceCombine: true}, tr)
	const n = 8
	for i := 0; i < n; i++ {
		addr := uint64(i) * 64
		d.Store64(addr, uint64(i)+100)
		d.PersistBatch([]uint64{addr})
	}
	st := d.Stats()
	if st.Flushes != n || st.Fences != n {
		t.Fatalf("flushes=%d fences=%d, want %d/%d", st.Flushes, st.Fences, n, n)
	}
	if got := tr.Count(obs.KBatchCommit); got != n {
		t.Fatalf("batch-commit events=%d, want %d", got, n)
	}
	if d.Epoch() != n {
		t.Fatalf("epoch=%d, want %d", d.Epoch(), n)
	}
	h := tr.Hist(obs.HFASEsPerFence)
	if h.Count != n || h.Sum != n {
		t.Fatalf("fases/fence hist count=%d sum=%d, want %d/%d", h.Count, h.Sum, n, n)
	}
	for i := 0; i < n; i++ {
		if got := d.Load64(uint64(i) * 64); got != uint64(i)+100 {
			t.Fatalf("word %d = %d", i, got)
		}
	}
}

// TestGroupCommitHammer drives 16 goroutines through the combiner
// (forced, so every commit takes the slot path) and checks that every
// value is durable in the persistence domain, that fences were actually
// amortized, and that the combined/led accounting adds up. This is the
// CI race-mode hammer.
func TestGroupCommitHammer(t *testing.T) {
	tr := obs.New(obs.Config{})
	d := gcDevice(t, GroupCommitConfig{Enabled: true, ForceCombine: true}, tr)
	const (
		goroutines = 16
		rounds     = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				addr := uint64(g*rounds+r) * 64
				d.Store64(addr, uint64(g*rounds+r)+1)
				if r%3 == 2 {
					d.FenceBatch() // fence-only commits join batches too
				}
				d.PersistBatch([]uint64{addr})
			}
		}(g)
	}
	wg.Wait()

	for i := 0; i < goroutines*rounds; i++ {
		d.assertPersisted(t, uint64(i)*64, uint64(i)+1)
	}

	commits := uint64(goroutines * (rounds + rounds/3))
	st := d.Stats()
	if st.Fences > commits {
		t.Fatalf("fences=%d exceed %d commits", st.Fences, commits)
	}
	t.Logf("commits=%d fences=%d (%.2f FASEs/fence)", commits, st.Fences,
		float64(commits)/float64(st.Fences))
	led := tr.Count(obs.KBatchCommit)
	combined := tr.Count(obs.KFenceCombined)
	if led+combined != commits {
		t.Fatalf("led=%d + combined=%d != commits=%d", led, combined, commits)
	}
	if led != d.Epoch() {
		t.Fatalf("batch-commit events=%d != epoch=%d", led, d.Epoch())
	}
	h := tr.Hist(obs.HFASEsPerFence)
	if h.Count != led || h.Sum != commits {
		t.Fatalf("fases/fence hist count=%d sum=%d, want %d/%d", h.Count, h.Sum, led, commits)
	}
	if st.Flushes != uint64(goroutines*rounds) {
		t.Fatalf("flushes=%d, want %d (one per persisted line)", st.Flushes, goroutines*rounds)
	}
}

// assertPersisted checks the persistence domain directly (not through
// the cache) by crashing a throwaway view — here we just read words,
// which after PersistBatch must be durable, so verify via a discard
// crash on a copy is overkill; instead check the word is clean+correct.
func (d *Device) assertPersisted(t *testing.T, addr, want uint64) {
	t.Helper()
	w := addr >> wordShift
	if got := loadWord(&d.words[w]); got != want {
		t.Fatalf("addr %#x: persistence domain has %d, want %d", addr, got, want)
	}
}

// TestGroupCommitMergesConcurrent pins the amortization deterministically:
// the test holds the leader flag while two committers publish, then
// releases it — one committer leads a 2-FASE batch, the other's fence is
// combined, and the whole thing costs exactly one device fence.
func TestGroupCommitMergesConcurrent(t *testing.T) {
	tr := obs.New(obs.Config{})
	d := gcDevice(t, GroupCommitConfig{Enabled: true, ForceCombine: true}, tr)

	d.gc.leader.Store(1) // stand-in leader: publishers must wait
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := uint64(g) * 64
			d.Store64(addr, uint64(g)+11)
			d.PersistBatch([]uint64{addr})
		}(g)
	}
	// Wait until both slots are published, then let a real leader in.
	for {
		n := 0
		for i := range d.gc.slots {
			if d.gc.slots[i].state.Load() == gcPublished {
				n++
			}
		}
		if n == 2 {
			break
		}
		runtime.Gosched()
	}
	// Release under mu with a broadcast, as a real leader does: a
	// publisher that already parked would otherwise sleep forever.
	d.gc.mu.Lock()
	d.gc.leader.Store(0)
	d.gc.wake.Broadcast()
	d.gc.mu.Unlock()
	wg.Wait()

	d.assertPersisted(t, 0, 11)
	d.assertPersisted(t, 64, 12)
	if st := d.Stats(); st.Fences != 1 || st.Flushes != 2 {
		t.Fatalf("fences=%d flushes=%d, want 1/2", st.Fences, st.Flushes)
	}
	if led := tr.Count(obs.KBatchCommit); led != 1 {
		t.Fatalf("batch-commit events=%d, want 1", led)
	}
	if combined := tr.Count(obs.KFenceCombined); combined != 1 {
		t.Fatalf("fence-combined events=%d, want 1", combined)
	}
	h := tr.Hist(obs.HFASEsPerFence)
	if h.Count != 1 || h.Sum != 2 {
		t.Fatalf("fases/fence hist count=%d sum=%d, want 1/2", h.Count, h.Sum)
	}
}

// TestGroupCommitCrashMidBatchResets: a crash fired while commits are in
// flight kills every waiter; Crash() then resets the combiner and the
// fence token so the reopened device is fully usable, and any line not
// covered by a completed merged fence obeys the crash mode.
func TestGroupCommitCrashMidBatchResets(t *testing.T) {
	d := gcDevice(t, GroupCommitConfig{Enabled: true, ForceCombine: true}, nil)

	// Durable prefix: commit one value through the combiner.
	d.Store64(0, 42)
	d.PersistBatch([]uint64{0})

	// In-flight suffix: arm a budget small enough to die inside the
	// next commit's combiner path, then observe CrashSignal.
	d.Store64(64, 7)
	d.Injector().Arm(1) // publish tick + first flush tick > 1 → fires mid-commit
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected CrashSignal")
			} else if _, ok := r.(CrashSignal); !ok {
				panic(r)
			}
		}()
		d.PersistBatch([]uint64{64})
	}()
	d.Injector().Arm(-1)

	d.Crash(CrashDiscard, nil)
	if got := d.Load64(0); got != 42 {
		t.Fatalf("durable word lost: %d", got)
	}
	if got := d.Load64(64); got != 0 {
		t.Fatalf("unfenced word survived discard: %d", got)
	}

	// The reopened device must work — combiner state was reset.
	d.Store64(128, 9)
	d.PersistBatch([]uint64{128})
	d.assertPersisted(t, 128, 9)
}

// TestGroupCommitWindowDwell: a positive batch window still commits
// correctly (the dwell only widens the epoch).
func TestGroupCommitWindowDwell(t *testing.T) {
	tr := obs.New(obs.Config{})
	d := gcDevice(t, GroupCommitConfig{Enabled: true, ForceCombine: true, WindowNS: 2000}, tr)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				addr := uint64(g*50+r) * 64
				d.Store64(addr, uint64(g*50+r)+1)
				d.PersistBatch([]uint64{addr})
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 200; i++ {
		d.assertPersisted(t, uint64(i)*64, uint64(i)+1)
	}
	if led := tr.Count(obs.KBatchCommit); led == 0 || led > 200 {
		t.Fatalf("batch-commit events=%d", led)
	}
}

// TestFenceSerializes: the device-global fence token makes concurrent
// fences queue, so N threads' fences take at least N drain times in
// total wall clock on any schedule. We can't assert wall clock
// portably; instead assert the token round-trips (uncontended fence
// still works) and that a fence inside an armed-fired crash panics
// instead of deadlocking on the token.
func TestFenceSerializes(t *testing.T) {
	d := New(Config{Size: 1 << 12, FenceNS: 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				d.Fence()
			}
		}()
	}
	wg.Wait()
	if st := d.Stats(); st.Fences != 800 {
		t.Fatalf("fences=%d, want 800", st.Fences)
	}
	if d.fenceTok.Load() != 0 {
		t.Fatal("fence token leaked")
	}
}
