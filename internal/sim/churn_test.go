package sim

import "testing"

// Edge cases of the churn models, complementing the happy-path coverage in
// sim_test.go.

func TestRateChurnMinLiveAboveInitialPopulation(t *testing.T) {
	// MinLive higher than the whole population: no crash may ever fire.
	e, _ := newCountingEngine(20, 5)
	e.SetChurn(&RateChurn{CrashProb: 1.0, MinLive: 10})
	e.Run(10)
	if e.LiveCount() != 5 {
		t.Fatalf("live=%d, want all 5 protected by MinLive=10", e.LiveCount())
	}
}

func TestRateChurnNoFloorDiesOut(t *testing.T) {
	// MinLive=0 means no floor: CrashProb=1 kills everyone, and the engine
	// must keep running empty cycles without panicking.
	e, _ := newCountingEngine(21, 8)
	e.SetChurn(&RateChurn{CrashProb: 1.0})
	e.Run(5)
	if e.LiveCount() != 0 {
		t.Fatalf("live=%d, want 0 with no MinLive floor", e.LiveCount())
	}
}

func TestRateChurnMinLiveExactBoundary(t *testing.T) {
	// MinLive equal to the population: still no crashes (the guard is
	// "would drop below", checked before each kill).
	e, _ := newCountingEngine(22, 6)
	e.SetChurn(&RateChurn{CrashProb: 1.0, MinLive: 6})
	e.Run(10)
	if e.LiveCount() != 6 {
		t.Fatalf("live=%d, want 6", e.LiveCount())
	}
}

func TestRateChurnJoinersCountTowardMinLive(t *testing.T) {
	// With joins replenishing the population, crashes may keep firing but
	// the live count can never end a cycle below MinLive.
	e, _ := newCountingEngine(23, 10)
	e.SetChurn(&RateChurn{CrashProb: 0.9, JoinPerCycle: 1, MinLive: 4})
	for i := 0; i < 30; i++ {
		e.RunCycle()
		if e.LiveCount() < 4 {
			t.Fatalf("cycle %d: live=%d dropped below MinLive", i, e.LiveCount())
		}
	}
}

func TestCatastropheChurnFractionZero(t *testing.T) {
	e, _ := newCountingEngine(24, 20)
	e.SetChurn(&CatastropheChurn{AtCycle: 2, Fraction: 0})
	e.Run(10)
	if e.LiveCount() != 20 {
		t.Fatalf("live=%d after zero-fraction catastrophe", e.LiveCount())
	}
}

func TestCatastropheChurnFractionOne(t *testing.T) {
	// Total catastrophe: everyone dies, engine keeps running empty cycles.
	e, _ := newCountingEngine(25, 20)
	e.SetChurn(&CatastropheChurn{AtCycle: 2, Fraction: 1})
	e.Run(10)
	if e.LiveCount() != 0 {
		t.Fatalf("live=%d after total catastrophe", e.LiveCount())
	}
}

func TestCatastropheChurnAtCycleZero(t *testing.T) {
	// AtCycle 0 fires on the very first cycle.
	e, _ := newCountingEngine(26, 10)
	e.SetChurn(&CatastropheChurn{AtCycle: 0, Fraction: 0.5})
	e.RunCycle()
	if e.LiveCount() != 5 {
		t.Fatalf("live=%d after cycle-0 catastrophe, want 5", e.LiveCount())
	}
}

func TestCatastropheChurnFiresExactlyOnce(t *testing.T) {
	// After the one-shot crash, revived nodes must not be re-killed on
	// later cycles (the done flag) — even though Cycle() keeps growing.
	e, _ := newCountingEngine(27, 10)
	e.SetChurn(&CatastropheChurn{AtCycle: 1, Fraction: 1})
	e.Run(3)
	if e.LiveCount() != 0 {
		t.Fatalf("live=%d, want 0", e.LiveCount())
	}
	for id := NodeID(0); id < 10; id++ {
		e.Revive(id)
	}
	e.Run(5)
	if e.LiveCount() != 10 {
		t.Fatalf("live=%d: catastrophe fired more than once", e.LiveCount())
	}
}

func TestCatastropheChurnMissedCycleNeverFires(t *testing.T) {
	// The model matches on equality, so a start past AtCycle never fires.
	e, _ := newCountingEngine(28, 10)
	e.Run(5) // advance past AtCycle before installing the model
	e.SetChurn(&CatastropheChurn{AtCycle: 3, Fraction: 1})
	e.Run(5)
	if e.LiveCount() != 10 {
		t.Fatalf("live=%d: catastrophe fired after its cycle passed", e.LiveCount())
	}
}
