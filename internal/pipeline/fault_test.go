package pipeline

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"staub/internal/chaos"
	"staub/internal/status"
)

// execChain runs a custom pass chain over a fresh state for satSrc.
func execChain(t *testing.T, cfg Config, passes ...Pass) *State {
	t.Helper()
	c := parse(t, satSrc)
	st := NewState(context.Background(), c, cfg, time.Now().Add(cfg.WithDefaults().Timeout), nil)
	Exec(st, passes)
	return st
}

func TestPassPanicRecovered(t *testing.T) {
	boom := Pass{Name: "test-boom", Run: func(*State) Verdict { panic("kaboom") }}
	after := Pass{Name: "test-after", Run: func(st *State) Verdict {
		t.Error("chain continued past a panicked pass")
		return Continue
	}}
	st := execChain(t, Config{Trace: true}, boom, after)
	res := st.Res
	if res.Outcome != OutcomeError || res.Status != status.Unknown {
		t.Fatalf("outcome/status = %v/%v, want error/unknown", res.Outcome, res.Status)
	}
	if res.Fault != FaultPanic || res.FaultPass != "test-boom" {
		t.Errorf("fault = %q at %q, want panic at test-boom", res.Fault, res.FaultPass)
	}
	if !strings.Contains(res.PanicStack, "goroutine") {
		t.Errorf("PanicStack missing captured stack: %q", res.PanicStack)
	}
	if st.Err == nil || !strings.Contains(st.Err.Error(), "kaboom") {
		t.Errorf("state error = %v, want the panic value", st.Err)
	}
	if len(res.Trace) != 1 || !strings.Contains(res.Trace[0].Note, "panic") {
		t.Errorf("trace = %+v, want one span noting the panic", res.Trace)
	}
}

func TestOutcomeErrorString(t *testing.T) {
	if got := OutcomeError.String(); got != "error" {
		t.Fatalf("OutcomeError.String() = %q, want error", got)
	}
}

func TestWatchdogCancelsWedgedPass(t *testing.T) {
	wedge := Pass{Name: "test-wedge", Run: func(st *State) Verdict {
		// A cooperative wedge: spins until the watchdog flips the
		// interrupt (a hard wedge cannot be preempted in-process; the
		// watchdog contract is cancellation at the next check).
		for !st.Interrupt.Load() {
			time.Sleep(time.Millisecond)
		}
		return Continue
	}}
	start := time.Now()
	st := execChain(t, Config{Timeout: 200 * time.Millisecond}, wedge)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("watchdog took %v to cancel a wedged pass", el)
	}
	res := st.Res
	if res.Outcome != OutcomeError || res.Fault != FaultWatchdog || res.FaultPass != "test-wedge" {
		t.Fatalf("outcome/fault = %v/%q at %q, want error/watchdog at test-wedge",
			res.Outcome, res.Fault, res.FaultPass)
	}
}

// TestDeterministicWatchdogFloor pins the transform-pass watchdog shares:
// wall-clock runs keep Timeout/4 with a 25ms floor, while a deterministic
// run, whose Timeout is a virtual budget, never gets less than its 1s
// floor, so a pass slowed by CPU contention is not faulted.
func TestDeterministicWatchdogFloor(t *testing.T) {
	for _, tc := range []struct {
		timeout       time.Duration
		deterministic bool
		want          time.Duration
	}{
		{40 * time.Millisecond, false, 25 * time.Millisecond},
		{200 * time.Millisecond, false, 50 * time.Millisecond},
		{40 * time.Millisecond, true, time.Second},
		{time.Second, true, time.Second},
		{8 * time.Second, true, 2 * time.Second},
	} {
		st := &State{Cfg: Config{Timeout: tc.timeout, Deterministic: tc.deterministic}}
		if got := watchdogShare(st, PassTranslate); got != tc.want {
			t.Errorf("timeout %v deterministic %t: share %v, want %v", tc.timeout, tc.deterministic, got, tc.want)
		}
	}
}

func TestWorkBudgetCeiling(t *testing.T) {
	glutton := Pass{Name: "test-glutton", Run: func(st *State) Verdict {
		st.SpanWork = 1 << 40
		return Continue
	}}
	st := execChain(t, Config{Timeout: time.Second, Trace: true}, glutton)
	res := st.Res
	if res.Outcome != OutcomeError || res.Fault != FaultBudget {
		t.Fatalf("outcome/fault = %v/%q, want error/budget", res.Outcome, res.Fault)
	}
	if !st.Interrupt.Load() {
		t.Error("budget fault did not set the interrupt flag")
	}
	if ceil := workCeiling(st.Cfg); res.Trace[0].Work != ceil {
		t.Errorf("recorded work %d not clamped to ceiling %d", res.Trace[0].Work, ceil)
	}
}

func TestChaosPassPanicContained(t *testing.T) {
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 1, Rate: 1, Max: 1, Fault: chaos.FaultPassPanic,
		Sites: []string{"pass:" + PassTranslate},
	}))
	defer restore()
	c := parse(t, satSrc)
	res := Run(context.Background(), c, Config{Timeout: time.Second, Deterministic: true}, nil)
	if res.Outcome != OutcomeError || res.Fault != FaultPanic || res.FaultPass != PassTranslate {
		t.Fatalf("outcome/fault = %v/%q at %q, want error/panic at translate",
			res.Outcome, res.Fault, res.FaultPass)
	}
	chaos.Disable()
	clean := Run(context.Background(), c, Config{Timeout: time.Second, Deterministic: true}, nil)
	if clean.Outcome != OutcomeVerified {
		t.Fatalf("post-chaos run = %v, want verified (no lingering state)", clean.Outcome)
	}
}

func TestChaosTransientError(t *testing.T) {
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 2, Rate: 1, Max: 1, Fault: chaos.FaultTransientError,
		Sites: []string{"pass:" + PassInferBounds},
	}))
	defer restore()
	c := parse(t, satSrc)
	res := Run(context.Background(), c, Config{Timeout: time.Second, Deterministic: true}, nil)
	if res.Outcome != OutcomeError || res.Fault != FaultTransient {
		t.Fatalf("outcome/fault = %v/%q, want error/transient", res.Outcome, res.Fault)
	}
}

func TestChaosBudgetBlowupContained(t *testing.T) {
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 3, Rate: 1, Max: 1, Fault: chaos.FaultBudgetBlowup,
		Sites: []string{"pass:" + PassBoundedSolve},
	}))
	defer restore()
	c := parse(t, satSrc)
	res := Run(context.Background(), c, Config{Timeout: time.Second, Deterministic: true}, nil)
	if res.Outcome != OutcomeError || res.Fault != FaultBudget || res.FaultPass != PassBoundedSolve {
		t.Fatalf("outcome/fault = %v/%q at %q, want error/budget at bounded-solve",
			res.Outcome, res.Fault, res.FaultPass)
	}
}

func TestChaosStallCancelledByWatchdog(t *testing.T) {
	restore := chaos.Enable(chaos.NewInjector(chaos.Config{
		Seed: 4, Rate: 1, Max: 1, Fault: chaos.FaultSolverStall,
		Sites: []string{"pass:" + PassTranslate}, StallFor: 30 * time.Second,
	}))
	defer restore()
	before := PassMetricsSnapshot()[PassTranslate]
	c := parse(t, satSrc)
	start := time.Now()
	res := Run(context.Background(), c, Config{Timeout: 200 * time.Millisecond, Deterministic: true}, nil)
	elapsed := time.Since(start)
	// The watchdog share of a deterministic 200ms run is its 1s floor; the 30s stall cap
	// must never be what ends the stall.
	if elapsed > 10*time.Second {
		t.Fatalf("stalled pass ran %v; watchdog did not cancel it", elapsed)
	}
	if res.Outcome != OutcomeError || res.Fault != FaultStall {
		t.Fatalf("outcome/fault = %v/%q, want error/stall", res.Outcome, res.Fault)
	}
	after := PassMetricsSnapshot()[PassTranslate]
	if after.Watchdogs <= before.Watchdogs {
		t.Errorf("watchdog counter did not advance: %d → %d", before.Watchdogs, after.Watchdogs)
	}
}

func TestChaosDisabledZeroDrift(t *testing.T) {
	chaos.Disable()
	c := parse(t, satSrc)
	cfg := Config{Timeout: time.Second, Deterministic: true, RefineRounds: 2}
	a := Run(context.Background(), c, cfg, nil)
	b := Run(context.Background(), c, cfg, nil)
	if a.Outcome != b.Outcome || a.Status != b.Status || a.Total != b.Total || a.Fault != "" {
		t.Fatalf("chaos-disabled runs differ or carry a fault: %+v vs %+v", a, b)
	}
}

func TestNewStateAllocatesInterrupt(t *testing.T) {
	st := NewState(context.Background(), parse(t, satSrc), Config{}, time.Time{}, nil)
	if st.Interrupt == nil {
		t.Fatal("NewState left Interrupt nil")
	}
	var intr atomic.Bool
	st = NewState(context.Background(), parse(t, satSrc), Config{}, time.Time{}, &intr)
	if st.Interrupt != &intr {
		t.Fatal("NewState replaced a caller-supplied interrupt")
	}
}
