package nvm

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Commit-ticket conformance: the fence sequence is monotonic, waiters
// (spinning or parked) are released by fences, cancel words, and
// crashes, and the no-waiter wake is free of lost-wakeup windows.

func TestCommitTicketAdvancesOnFence(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	t0 := d.CommitTicket()
	d.Store64(64, 7)
	d.CLWB(64)
	d.Fence()
	if got := d.CommitTicket(); got != t0+1 {
		t.Fatalf("ticket after one fence: %d, want %d", got, t0+1)
	}
	// An already-satisfied wait returns immediately.
	d.WaitTicket(t0+1, nil, 0)
	// Group-commit merged fences funnel through Fence too; a second
	// fence keeps the sequence strictly monotonic.
	d.Fence()
	if got := d.CommitTicket(); got != t0+2 {
		t.Fatalf("ticket after two fences: %d, want %d", got, t0+2)
	}
}

func TestWaitTicketParksUntilFence(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	target := d.CommitTicket() + 1
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.WaitTicket(target, nil, 0)
		}()
	}
	go func() { wg.Wait(); close(done) }()
	// Give the waiters time to pass the spin phase and park.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatalf("waiters returned before any fence")
	default:
	}
	d.Store64(128, 1)
	d.CLWB(128)
	d.Fence()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("fence did not release parked waiters")
	}
}

func TestWaitTicketCancelWord(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	var seq atomic.Uint64
	seq.Store(1) // "odd epoch" as the fast lane would observe it
	done := make(chan struct{})
	go func() {
		// Ticket far in the future: only the cancel word can release.
		d.WaitTicket(d.CommitTicket()+1<<40, &seq, 1)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-done:
		t.Fatalf("waiter returned with cancel word unchanged")
	default:
	}
	seq.Store(2)
	d.WakeTicketWaiters()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("cancel word + wake did not release the waiter")
	}
	// Pre-cancelled waits return without parking.
	d.WaitTicket(d.CommitTicket()+1<<40, &seq, 7)
}

func TestWaitTicketUnwindsOnCrash(t *testing.T) {
	d := New(Config{Size: 1 << 16, Crash: new(Injector)})
	d.Injector().Arm(1 << 60)
	unwound := make(chan struct{})
	go func() {
		defer func() {
			if _, ok := recover().(CrashSignal); !ok {
				t.Errorf("parked waiter did not unwind with CrashSignal")
			}
			close(unwound)
		}()
		d.WaitTicket(d.CommitTicket()+1<<40, nil, 0)
	}()
	time.Sleep(20 * time.Millisecond)
	d.Injector().Trigger()
	// Settling the device bumps the ticket so parked waiters re-check
	// the predicate, observe the fired injection, and unwind.
	d.Crash(CrashRandom, rand.New(rand.NewSource(1)))
	select {
	case <-unwound:
	case <-time.After(5 * time.Second):
		t.Fatalf("crash did not release the parked waiter")
	}
}
