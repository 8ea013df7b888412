package nvm

import "testing"

// crashes reports whether fn panics with CrashSignal; any other panic
// propagates.
func crashes(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(CrashSignal); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// TestInjectorScopes checks the injector is the unit of power failure:
// devices sharing one die together, a device with its own injector
// keeps serving, recovery-scoped budgets count only their own
// injector's Recover passes, and Crash reboots the device disarmed.
func TestInjectorScopes(t *testing.T) {
	power := new(Injector)
	a := New(Config{Size: 1 << 12, Crash: power})
	b := New(Config{Size: 1 << 12, Crash: power})
	own := new(Injector)
	c := New(Config{Size: 1 << 12, Crash: own})

	// A shared budget burns on both devices' events and kills both.
	power.Arm(3)
	a.Store64(0, 1)
	b.Store64(0, 1)
	c.Store64(0, 1) // c's events do not consume power's budget
	a.Store64(8, 2)
	if got := power.Remaining(); got != 0 {
		t.Fatalf("shared budget remaining = %d, want 0", got)
	}
	if !crashes(func() { b.Store64(8, 2) }) {
		t.Fatal("device b survived its shared budget running out")
	}
	if !power.Fired() {
		t.Fatal("shared injector did not fire")
	}
	if !crashes(func() { a.Load64(0) }) {
		t.Fatal("device a survived its shared injector firing")
	}

	// c has its own injector and keeps serving.
	c.Store64(8, 42)
	c.Fence()
	if got := c.Load64(8); got != 42 || own.Fired() {
		t.Fatalf("device c load = %d (fired %v), want 42 unfired", got, own.Fired())
	}

	// Crash reboots a disarmed; b shares the injector, so it serves too.
	a.Crash(CrashDiscard, nil)
	if power.Armed() || power.Fired() {
		t.Fatal("Crash left the injector armed")
	}
	a.Store64(16, 7)
	b.Store64(16, 7)

	// A recovery-scoped budget burns only inside power's passes: c's
	// live pass on its own injector does not count.
	power.ArmRecovery(2)
	if !power.RecoveryCrashArmed() || own.RecoveryCrashArmed() {
		t.Fatal("recovery-scoped arming leaked across injectors")
	}
	a.Store64(0, 1) // forward event, no pass live
	if idx := own.EnterRecovery(); idx != 0 {
		t.Fatalf("own pass index = %d, want 0", idx)
	}
	a.Store64(0, 2)
	b.Store64(0, 2)
	own.ExitRecovery()
	if got := power.Remaining(); got != 2 {
		t.Fatalf("recovery budget remaining = %d after events outside its passes, want 2", got)
	}
	if idx := power.EnterRecovery(); idx != 0 {
		t.Fatalf("power pass index = %d, want 0", idx)
	}
	a.Store64(0, 3)
	c.Store64(0, 3) // another injector's device
	b.Store64(0, 3)
	if !crashes(func() { a.Store64(0, 4) }) {
		t.Fatal("recovery-scoped budget did not fire inside its pass")
	}
	power.ExitRecovery()
	if power.RecoveryPasses() != 1 || own.RecoveryPasses() != 1 {
		t.Fatalf("passes = %d/%d, want 1/1", power.RecoveryPasses(), own.RecoveryPasses())
	}
	b.Crash(CrashDiscard, nil)
	if power.Armed() || power.Fired() {
		t.Fatal("Crash left the recovery-scoped injector armed")
	}
}

// TestLocalCrashScopedToDevice proves a crash on one device's own
// injector kills that device's users and leaves a second device, on a
// different injector in the same process, untouched.
func TestLocalCrashScopedToDevice(t *testing.T) {
	ia, ib := new(Injector), new(Injector)
	a := New(Config{Size: 1 << 12, Crash: ia})
	b := New(Config{Size: 1 << 12, Crash: ib})

	ia.Arm(1 << 60)
	ia.Trigger()
	if !ia.Fired() {
		t.Fatal("injector a did not fire")
	}

	// b is unaffected: stores and fences proceed.
	b.Store64(0, 42)
	b.Fence()
	if got := b.Load64(0); got != 42 || ib.Fired() {
		t.Fatalf("device b load = %d (fired %v), want 42 unfired", got, ib.Fired())
	}

	// a panics CrashSignal at its next event.
	if !crashes(func() { a.Store64(0, 1) }) {
		t.Fatal("expected CrashSignal from device a")
	}

	// Crash (reboot) disarms a's injector; the reopened device works.
	a.Crash(CrashDiscard, nil)
	if ia.Armed() || ia.Fired() {
		t.Fatal("Crash did not clear injection")
	}
	a.Store64(8, 7)
	a.Fence()
	if got := a.Load64(8); got != 7 {
		t.Fatalf("device a load after reboot = %d, want 7", got)
	}
}

// TestLocalCrashBudget checks a budget burns down on its own injector's
// device only and fires exactly once on exhaustion.
func TestLocalCrashBudget(t *testing.T) {
	ia, ib := new(Injector), new(Injector)
	a := New(Config{Size: 1 << 12, Crash: ia})
	b := New(Config{Size: 1 << 12, Crash: ib})
	ia.Arm(3)
	b.Store64(0, 1) // must not consume a's budget
	b.Store64(8, 2)
	if got := ia.Remaining(); got != 3 {
		t.Fatalf("budget remaining = %d after other device's events, want 3", got)
	}
	fired := 0
	if crashes(func() {
		for i := 0; i < 10; i++ {
			a.Store64(uint64(i*8), uint64(i))
		}
	}) {
		fired++
	}
	if fired != 1 {
		t.Fatalf("crash fired %d times, want 1", fired)
	}
	if !ia.Fired() {
		t.Fatal("injector a fired flag not set")
	}
	if ib.Fired() {
		t.Fatal("injector b fired flag set")
	}
	ia.Arm(-1)
	if ia.Armed() || ia.Fired() {
		t.Fatal("Arm(-1) did not disarm")
	}
}
