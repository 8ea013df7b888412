package nvalloc

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/ido-nvm/ido/internal/nvm"
)

// sweepState tracks the blocks the workload has committed: an address is
// added once Alloc has returned it and removed before Free is called, so
// at any crash point the set holds exactly the blocks whose allocated
// headers were fenced durable and that no Free has begun to release.
// (The op in flight at the crash is deliberately absent: a published but
// never-returned block is a crash-time leak, and a block whose free
// header just landed may legitimately be reused after recovery.)
type sweepState struct {
	live map[uint64]int // user addr -> requested bytes
}

// sweepWork drives every allocator path that touches the device: carves
// (magazine refills), magazine hits, shard traffic, the large first-fit
// path, and frees of each.
func sweepWork(a *Allocator, st *sweepState) {
	var order []uint64
	for i := 0; i < 12; i++ {
		n := 16 + i*24 // spans several size classes
		p, err := a.Alloc(n)
		if err != nil {
			panic(err)
		}
		st.live[p] = n
		order = append(order, p)
	}
	for i := 0; i < len(order); i += 2 {
		delete(st.live, order[i])
		a.Free(order[i])
	}
	for i := 0; i < 6; i++ { // magazine round-trips
		p, err := a.Alloc(40)
		if err != nil {
			panic(err)
		}
		st.live[p] = 40
		delete(st.live, p)
		a.Free(p)
	}
	p, err := a.Alloc(5000) // above maxSmall: large path
	if err != nil {
		panic(err)
	}
	st.live[p] = 5000
	delete(st.live, p)
	a.Free(p)
	for i := 1; i < len(order); i += 2 {
		delete(st.live, order[i])
		a.Free(order[i])
	}
}

// TestAllocCrashSweepRecovers kills the device at every event inside the
// workload — each header write, flush, fence, and zeroing store in
// Alloc, Free, and the magazine-refill carve — then settles the
// persistence domain and proves recovery: Attach succeeds, the header
// chain is consistent, every committed-live block survived, and nothing
// the recovered allocator hands out overlaps one. A MutexAllocator
// attach of the same heap cross-checks that the sharded allocator never
// bent the shared persistent format.
func TestAllocCrashSweepRecovers(t *testing.T) {
	const arena = 1 << 16
	crashes := 0
	for budget := int64(1); ; budget++ {
		inj := new(nvm.Injector)
		d := nvm.New(nvm.Config{Size: arena, Crash: inj})
		a := New(d, 0, arena)
		st := &sweepState{live: map[uint64]int{}}
		inj.Arm(budget)
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
					c = true
				}
			}()
			sweepWork(a, st)
			return false
		}()
		inj.Arm(-1)
		if !crashed {
			if budget == 1 {
				t.Fatal("budget 1 did not crash: injection is not reaching the allocator")
			}
			break // budget outlasted the whole workload: every point swept
		}
		crashes++
		d.Crash(nvm.CrashDiscard, nil)

		a2, err := Attach(d, 0, arena)
		if err != nil {
			t.Fatalf("budget %d: Attach after crash: %v", budget, err)
		}
		if err := a2.CheckInvariants(); err != nil {
			t.Fatalf("budget %d: invariants after crash: %v", budget, err)
		}
		for p, n := range st.live {
			h := d.Load64(p - headerSize)
			if h&allocBit == 0 {
				t.Fatalf("budget %d: committed block %#x lost its allocated header", budget, p)
			}
			if got := int(h>>1) - headerSize; got < n {
				t.Fatalf("budget %d: committed block %#x shrank: %d < %d", budget, p, got, n)
			}
		}
		// The recovered allocator must never double-own a committed block.
		for i := 0; i < 64; i++ {
			p, err := a2.Alloc(32)
			if err != nil {
				break
			}
			end := p + uint64(a2.BlockSize(p))
			for q, n := range st.live {
				if p < q+uint64(n) && q < end {
					t.Fatalf("budget %d: recovered Alloc returned [%#x,%#x) overlapping live block %#x",
						budget, p, end, q)
				}
			}
		}
		if m, err := AttachMutex(d, 0, arena); err != nil {
			t.Fatalf("budget %d: AttachMutex cross-check: %v", budget, err)
		} else if err := m.CheckInvariants(); err != nil {
			t.Fatalf("budget %d: MutexAllocator sees a different heap: %v", budget, err)
		}
	}
	if crashes == 0 {
		t.Fatal("sweep never crashed")
	}
	t.Logf("swept %d crash points", crashes)
}

// TestCarveRetiresSpanningHeader pins the two-phase carve discipline:
// once a carved piece is visible in a magazine or shard, no durable
// free header may span it. It drives the race window by hand — carve
// an extent but never publish block 0 (the carver "stalls"), let a
// second allocation claim a carved piece and publish it, then crash.
// If the carve had exposed pieces while the extent's spanning free
// header was still authoritative, the scan would re-adopt the whole
// extent and hand the committed block out again.
func TestCarveRetiresSpanningHeader(t *testing.T) {
	const arena = 1 << 16
	d := nvm.New(nvm.Config{Size: arena})
	a := New(d, 0, arena)
	// The carver: takes the whole-arena extent, parks the interior
	// blocks, returns block 0 — whose allocated header is deliberately
	// never published.
	if _, ok := a.carve(0); !ok {
		t.Fatal("carve failed on a fresh heap")
	}
	// The racing thread: claims a carved interior block and commits it
	// (allocated header fenced durable), exactly what Alloc does.
	vb, ok := a.magPop(0)
	if !ok {
		t.Fatal("carve parked nothing in the magazine")
	}
	a.writeHeader(vb.addr, vb.size, true)
	d.Fence()
	d.Crash(nvm.CrashDiscard, nil)

	a2, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatalf("Attach after mid-carve crash: %v", err)
	}
	if err := a2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after mid-carve crash: %v", err)
	}
	if h := d.Load64(vb.addr); h&allocBit == 0 {
		t.Fatalf("committed block %#x lost its allocated header", vb.addr)
	}
	for i := 0; i < arena/minBlock; i++ {
		p, err := a2.Alloc(16)
		if err != nil {
			break
		}
		end := p - headerSize + uint64(a2.BlockSize(p)) + headerSize
		if p-headerSize < vb.addr+vb.size && vb.addr < end {
			t.Fatalf("recovered Alloc returned [%#x,%#x) overlapping committed block [%#x,%#x)",
				p-headerSize, end, vb.addr, vb.addr+vb.size)
		}
	}
}

// TestLargeSplitRetiresSpanningHeader is the same pin for the large
// path's tail split: the remainder pushed back by allocLarge must not
// be covered by the head's old spanning free header once another
// thread can allocate (and commit) out of it.
func TestLargeSplitRetiresSpanningHeader(t *testing.T) {
	const arena = 1 << 16
	d := nvm.New(nvm.Config{Size: arena})
	a := New(d, 0, arena)
	// The splitter: takes the whole-arena extent, files the remainder,
	// stalls before publishing the head's allocated header.
	if _, ok := a.allocLarge(8192); !ok {
		t.Fatal("allocLarge failed on a fresh heap")
	}
	// The racing thread: a full Alloc out of the remainder, committed.
	p, err := a.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc from remainder: %v", err)
	}
	blk := p - headerSize
	blkEnd := blk + uint64(a.BlockSize(p)) + headerSize
	d.Crash(nvm.CrashDiscard, nil)

	a2, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatalf("Attach after mid-split crash: %v", err)
	}
	if err := a2.CheckInvariants(); err != nil {
		t.Fatalf("invariants after mid-split crash: %v", err)
	}
	if h := d.Load64(blk); h&allocBit == 0 {
		t.Fatalf("committed block %#x lost its allocated header", blk)
	}
	for i := 0; i < arena/minBlock; i++ {
		q, err := a2.Alloc(16)
		if err != nil {
			break
		}
		qEnd := q - headerSize + uint64(a2.BlockSize(q)) + headerSize
		if q-headerSize < blkEnd && blk < qEnd {
			t.Fatalf("recovered Alloc returned [%#x,%#x) overlapping committed block [%#x,%#x)",
				q-headerSize, qEnd, blk, blkEnd)
		}
	}
}

// TestAllocHammer16 runs 16 goroutines of mixed Alloc/Free against one
// heap — the contention profile the sharded design exists for — then
// checks the header chain and counters balance exactly. Run with -race
// this doubles as the allocator's data-race certification.
func TestAllocHammer16(t *testing.T) {
	const (
		arena   = 1 << 22
		workers = 16
		ops     = 3000
	)
	d := nvm.New(nvm.Config{Size: arena})
	a := New(d, 0, arena)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			ring := make([]uint64, 0, 32)
			for i := 0; i < ops; i++ {
				if len(ring) == cap(ring) || (len(ring) > 0 && r.Intn(3) == 0) {
					j := r.Intn(len(ring))
					a.Free(ring[j])
					ring[j] = ring[len(ring)-1]
					ring = ring[:len(ring)-1]
				} else {
					p, err := a.Alloc(16 + r.Intn(240))
					if err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					ring = append(ring, p)
				}
			}
			for _, p := range ring {
				a.Free(p)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.Allocs != s.Frees || s.AllocatedBytes != 0 {
		t.Fatalf("unbalanced after hammer: %+v", s)
	}
}

// TestAllocNoTransientOOM reproduces the failure mode the idobench fig5
// capture hit: between takeLarge and the push-back at the end of a
// carve, the heap's only free extent is held privately by one thread,
// and with many goroutines on few cores every other allocator caller
// used to scan an apparently empty heap and report out-of-memory with
// almost nothing allocated. Alloc must never fail while total live
// bytes are far below capacity, no matter how the carver is preempted.
func TestAllocNoTransientOOM(t *testing.T) {
	const (
		arena   = 1 << 22
		workers = 16
		perW    = 2048 // 64 B blocks each: 16*2048*64 = half the arena
	)
	// Pure allocation keeps every worker leaning on the carve path at
	// once (frees would restock the magazines and hide the window), and
	// the persistence cost model's spin delays stretch the carve's
	// header writes, so a preempted carver holds the extent across many
	// scheduler slices — the same shape as the figure sweeps.
	d := nvm.New(nvm.Config{Size: arena, FlushNS: 50, FenceNS: 400})
	a := New(d, 0, arena)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			live := make([]uint64, 0, perW)
			for i := 0; i < perW; i++ {
				p, err := a.Alloc(56)
				if err != nil {
					t.Errorf("worker %d alloc %d: %v", w, i, err)
					break
				}
				live = append(live, p)
			}
			for _, p := range live {
				a.Free(p)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachCrashSweepReattaches crashes the recovery path itself: the
// Attach header scan is killed at a stride of event offsets mid-adoption,
// then run again on the same image. The scan only reads the device, so a
// crashed scan must be invisible — the re-Attach must succeed, see the
// identical heap, and agree byte-for-byte on allocated bytes with a
// MutexAllocator attach of the same image (the differential oracle for
// the shared persistent format).
func TestAttachCrashSweepReattaches(t *testing.T) {
	const arena = 1 << 16
	inj := new(nvm.Injector)
	d := nvm.New(nvm.Config{Size: arena, Crash: inj})
	a := New(d, 0, arena)
	st := &sweepState{live: map[uint64]int{}}

	// Probe the workload's event count, then rebuild and crash it
	// mid-flight so the image Attach scans carries in-flight state.
	inj.Arm(1 << 40)
	sweepWork(a, st)
	workEvents := int64(1)<<40 - inj.Remaining()
	inj.Arm(-1)

	d = nvm.New(nvm.Config{Size: arena, Crash: inj})
	a = New(d, 0, arena)
	st = &sweepState{live: map[uint64]int{}}
	inj.Arm(workEvents * 3 / 5)
	crashed := func() (c bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(nvm.CrashSignal); !ok {
					panic(r)
				}
				c = true
			}
		}()
		sweepWork(a, st)
		return false
	}()
	inj.Arm(-1)
	if !crashed {
		t.Fatal("mid-workload budget did not fire")
	}
	d.Crash(nvm.CrashDiscard, nil)

	// Probe the scan's own event count on the settled image.
	inj.Arm(1 << 40)
	ref, err := Attach(d, 0, arena)
	if err != nil {
		t.Fatalf("reference Attach: %v", err)
	}
	scanEvents := int64(1)<<40 - inj.Remaining()
	inj.Arm(-1)
	if scanEvents < 2 {
		t.Fatalf("scan performed only %d device events", scanEvents)
	}
	refAllocated := ref.Stats().AllocatedBytes

	stride := scanEvents / 16
	if stride < 1 {
		stride = 1
	}
	points := 0
	for off := int64(1); off < scanEvents; off += stride {
		inj.Arm(off)
		crashed := func() (c bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(nvm.CrashSignal); !ok {
						panic(r)
					}
					c = true
				}
			}()
			_, aerr := Attach(d, 0, arena)
			if aerr != nil {
				t.Errorf("offset %d: Attach errored instead of crashing: %v", off, aerr)
			}
			return false
		}()
		inj.Arm(-1)
		if t.Failed() {
			return
		}
		if !crashed {
			t.Fatalf("offset %d of %d did not crash the scan", off, scanEvents)
		}
		d.Crash(nvm.CrashDiscard, nil)

		a2, err := Attach(d, 0, arena)
		if err != nil {
			t.Fatalf("offset %d: re-Attach after crashed scan: %v", off, err)
		}
		if err := a2.CheckInvariants(); err != nil {
			t.Fatalf("offset %d: invariants after crashed scan: %v", off, err)
		}
		if got := a2.Stats().AllocatedBytes; got != refAllocated {
			t.Fatalf("offset %d: re-Attach sees %d allocated bytes, reference saw %d", off, got, refAllocated)
		}
		for p, n := range st.live {
			h := d.Load64(p - headerSize)
			if h&allocBit == 0 {
				t.Fatalf("offset %d: committed block %#x lost its allocated header", off, p)
			}
			if got := int(h>>1) - headerSize; got < n {
				t.Fatalf("offset %d: committed block %#x shrank: %d < %d", off, p, got, n)
			}
		}
		m, err := AttachMutex(d, 0, arena)
		if err != nil {
			t.Fatalf("offset %d: AttachMutex cross-check: %v", off, err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("offset %d: MutexAllocator sees a different heap: %v", off, err)
		}
		if got := m.Stats().AllocatedBytes; got != refAllocated {
			t.Fatalf("offset %d: MutexAllocator sees %d allocated bytes, sharded scan saw %d", off, got, refAllocated)
		}
		points++
	}
	if points == 0 {
		t.Fatal("sweep crashed the scan at no offsets")
	}
	t.Logf("crashed the Attach scan at %d offsets (of %d scan events)", points, scanEvents)
}
