package locks

import (
	"sync"
	"testing"

	"github.com/ido-nvm/ido/internal/nvm"
	"github.com/ido-nvm/ido/internal/region"
)

func newMgr(t *testing.T) (*region.Region, *Manager) {
	t.Helper()
	reg := region.Create(1<<16, nvm.Config{Crash: new(nvm.Injector)})
	return reg, NewManager(reg)
}

func TestCreateAndMutualExclusion(t *testing.T) {
	_, m := newMgr(t)
	l, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				l.Acquire()
				counter++
				l.Release()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestHolderSurvivesCrashAndMapsToFreshLock(t *testing.T) {
	reg, m := newMgr(t)
	l, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	holder := l.Holder()
	l.Acquire() // held at crash time

	reg2, err := reg.Crash(nvm.CrashDiscard, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(reg2)
	nl := m2.ByHolder(holder)
	// The fresh transient lock starts unlocked, per §III-B.
	if !nl.TryAcquire() {
		t.Fatal("recovered lock not free")
	}
	nl.Release()
	// Same holder -> same lock object.
	if m2.ByHolder(holder) != nl {
		t.Fatal("ByHolder not idempotent")
	}
	if m2.Count() != 1 {
		t.Fatalf("count = %d", m2.Count())
	}
}

func TestByHolderRejectsGarbageAddress(t *testing.T) {
	reg, m := newMgr(t)
	p, _ := reg.Alloc.Alloc(8)
	reg.Dev.Store64(p, 12345)
	defer func() {
		if recover() == nil {
			t.Fatal("garbage holder accepted")
		}
	}()
	m.ByHolder(p)
}

func TestTryAcquire(t *testing.T) {
	_, m := newMgr(t)
	l, _ := m.Create()
	if !l.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if l.TryAcquire() {
		t.Fatal("second TryAcquire succeeded")
	}
	l.Release()
}

func TestAcquireUnderArmedInjectionStillExcludes(t *testing.T) {
	// With injection armed but a huge budget, the spin path must still
	// provide mutual exclusion.
	reg, m := newMgr(t)
	l, _ := m.Create()
	reg.Dev.Injector().Arm(1 << 60)
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				l.Acquire()
				counter++
				l.Release()
			}
		}()
	}
	wg.Wait()
	if counter != 2000 {
		t.Fatalf("counter = %d", counter)
	}
}
