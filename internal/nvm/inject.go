package nvm

import "sync/atomic"

// Crash injection for native (non-VM) code: a device counts memory
// events against its Injector and, when an armed budget is exhausted,
// panics with CrashSignal in whichever goroutine issued the event — and
// in every other goroutine at its next access to any device sharing
// that injector. This is the simulation's power failure: every thread
// using the machine's NVM dies, volatile state is abandoned, and the
// test then calls Crash() to settle the persistence domain and
// reattaches. Devices that share an injector lose power together; a
// device with its own injector dies alone.

// CrashSignal is the panic payload of an injected crash. Harness code
// recovers it and treats the goroutine as dead.
type CrashSignal struct{}

// Budget scopes: an all-events budget burns down on every device event;
// a recovery-scoped budget burns down only while at least one Recover
// pass entered on the same injector is live (between EnterRecovery and
// ExitRecovery), so the chaos harness can target "the Nth persist event
// of the recovery path" without counting the forward events that
// precede it.
const (
	scopeAll      = 0
	scopeRecovery = 1
)

// Injector is one machine's crash injection state: an armed budget of
// device events, its scope, whether it has fired, and the Recover
// passes running on the machine. The zero value is disarmed and ready
// to use. Config.Crash hands it to the devices it governs; it keeps no
// list of them.
type Injector struct {
	armed  atomic.Bool
	fired  atomic.Bool
	budget atomic.Int64
	scope  atomic.Int32
	// depth counts live Recover passes; passes counts EnterRecovery
	// calls (the chaos "attempt" index, reported per nesting level in
	// RecoveryAudit).
	depth  atomic.Int64
	passes atomic.Int64
}

// defaultInjector governs every device whose Config.Crash is nil.
var defaultInjector Injector

// ArmCrash arms the default injector (see Injector.Arm).
func ArmCrash(n int64) { defaultInjector.Arm(n) }

// TriggerCrash fires the default injector (see Injector.Trigger).
func TriggerCrash() { defaultInjector.Trigger() }

// Arm arms crash injection with a budget of n device events; a negative
// n disarms and clears the fired state.
func (j *Injector) Arm(n int64) {
	if n < 0 {
		j.armed.Store(false)
		j.fired.Store(false)
		j.scope.Store(scopeAll)
		return
	}
	j.arm(scopeAll, n)
}

// ArmRecovery arms a recovery-scoped budget: the crash fires at the
// n-th device event issued while a Recover pass entered on this
// injector is live. Events outside recovery do not consume the budget.
// A negative n disarms (same as Arm(-1)).
func (j *Injector) ArmRecovery(n int64) {
	if n < 0 {
		j.Arm(-1)
		return
	}
	j.arm(scopeRecovery, n)
}

func (j *Injector) arm(scope int32, n int64) {
	j.fired.Store(false)
	j.scope.Store(scope)
	j.budget.Store(n)
	j.armed.Store(true)
}

// RecoveryCrashArmed reports whether a live recovery-scoped budget is
// armed. Recover implementations consult this to switch to their
// deterministic serial restore path, so the n-th recovery event is the
// same event on every replay.
func (j *Injector) RecoveryCrashArmed() bool {
	return j.armed.Load() && !j.fired.Load() && j.scope.Load() == scopeRecovery
}

// EnterRecovery marks a Recover pass live and returns its attempt index
// (0 for the first pass on this injector). Every
// Recover implementation brackets itself with EnterRecovery and
// ExitRecovery on its device's injector so recovery-scoped budgets
// count its events.
func (j *Injector) EnterRecovery() int {
	j.depth.Add(1)
	return int(j.passes.Add(1)) - 1
}

// ExitRecovery unmarks a live Recover pass. Call via defer so a
// mid-recovery CrashSignal still restores the depth.
func (j *Injector) ExitRecovery() { j.depth.Add(-1) }

// RecoveryPasses returns the number of Recover passes begun on this
// injector.
func (j *Injector) RecoveryPasses() int { return int(j.passes.Load()) }

// Remaining returns the armed budget's remaining event count. The chaos
// sweep probes a path's event total by arming a huge budget, running
// the path, and reading total - remaining.
func (j *Injector) Remaining() int64 { return j.budget.Load() }

// Armed reports whether injection is armed.
func (j *Injector) Armed() bool { return j.armed.Load() }

// Trigger fires the injected crash immediately (injection must be
// armed). Use this for timed kills: arm with a huge budget BEFORE
// launching workers — so lock waiters take the crash-aware spin path —
// then trigger at the kill time. Every goroutine dies at its next
// access to a device on this injector or its next lock-spin check.
func (j *Injector) Trigger() {
	if !j.armed.Load() {
		panic("nvm: Trigger while disarmed")
	}
	j.fired.Store(true)
}

// Fired reports whether the injected crash has gone off.
func (j *Injector) Fired() bool { return j.fired.Load() }

// tick consumes one event of an armed injector and panics when the
// budget is spent. A fired crash kills every goroutine at its next
// event regardless of scope; an unfired recovery-scoped budget only
// burns down while a Recover pass is live. Kept out of line so the
// disarmed check in crashTick inlines into every device operation.
//
//go:noinline
func (j *Injector) tick() {
	if j.fired.Load() {
		panic(CrashSignal{})
	}
	if j.scope.Load() == scopeRecovery && j.depth.Load() == 0 {
		return
	}
	if j.budget.Add(-1) < 0 {
		j.fired.Store(true)
		panic(CrashSignal{})
	}
}

// Injector returns the crash injector governing this device.
func (d *Device) Injector() *Injector { return d.inj }

// crashTick is the per-event injection hook on every device operation.
func (d *Device) crashTick() {
	if d.inj.armed.Load() {
		d.inj.tick()
	}
}

// crashFired reports whether this device's injected crash has gone
// off — the predicate every crash-aware spin and park site on this
// device checks before waiting further.
func (d *Device) crashFired() bool {
	return d.inj.armed.Load() && d.inj.fired.Load()
}

// crashedSince reports whether a waiter that read d.gen as gen must
// die: the injected crash has fired, or Crash has rebooted the device
// (and disarmed its injector) since.
func (d *Device) crashedSince(gen uint64) bool {
	return d.crashFired() || d.gen.Load() != gen
}
