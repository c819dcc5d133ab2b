package load

import (
	"math"
	"testing"
	"time"
)

func TestWorkerFormula(t *testing.T) {
	c := Costs{C1: 0.5, C2: 1, C3: 2, C4: 3}
	got := c.Worker(10, 4, 6)
	want := 0.5*10*4 + 1*10 + 2*4 + 3*6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("Worker = %v, want %v", got, want)
	}
}

func TestNodeCountsInsertAndDelete(t *testing.T) {
	c := Costs{C1: 0, C2: 0, C3: 2, C4: 1}
	// queries count as both insertions and deletions.
	if got := c.Node(0, 10); got != 30 {
		t.Errorf("Node = %v, want 30", got)
	}
}

func TestCell(t *testing.T) {
	if got := Cell(7, 3); got != 21 {
		t.Errorf("Cell = %v, want 21", got)
	}
	if got := Cell(0, 100); got != 0 {
		t.Errorf("Cell = %v, want 0", got)
	}
}

func TestBalanceFactor(t *testing.T) {
	tests := []struct {
		name  string
		loads []float64
		want  float64
	}{
		{"balanced", []float64{10, 10, 10}, 1},
		{"double", []float64{10, 20}, 2},
		{"empty", nil, 1},
		{"single", []float64{5}, 1},
		{"all zero", []float64{0, 0}, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := BalanceFactor(tt.loads); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("BalanceFactor = %v, want %v", got, tt.want)
			}
		})
	}
	// Idle worker yields a huge but finite factor.
	f := BalanceFactor([]float64{0, 100})
	if math.IsInf(f, 0) || f < 1e6 {
		t.Errorf("idle-worker factor = %v", f)
	}
}

func TestArgMinMax(t *testing.T) {
	loads := []float64{5, 1, 9, 3}
	lo, hi := ArgMinMax(loads)
	if lo != 1 || hi != 2 {
		t.Errorf("ArgMinMax = %d,%d want 1,2", lo, hi)
	}
}

func TestDetectorThresholdAndHysteresis(t *testing.T) {
	d := NewDetector(DetectorConfig{Theta: 1.5, SustainChecks: 2, Cooldown: time.Minute})
	now := time.Unix(1000, 0)
	if got := d.Observe(1.2, now); got != Balanced {
		t.Fatalf("below theta: %v, want balanced", got)
	}
	// First violation only arms the streak; the second fires.
	if got := d.Observe(2.0, now); got != Sustaining {
		t.Fatalf("first violation: %v, want sustaining", got)
	}
	if got := d.Observe(2.0, now.Add(time.Second)); got != Trigger {
		t.Fatalf("sustained violation: %v, want trigger", got)
	}
	// A dip below theta resets the streak.
	if got := d.Observe(1.0, now.Add(2*time.Second)); got != Balanced {
		t.Fatalf("dip: %v, want balanced", got)
	}
	if got := d.Observe(2.0, now.Add(3*time.Second)); got != Sustaining {
		t.Fatalf("violation after dip must re-sustain: %v", got)
	}
}

func TestDetectorCooldown(t *testing.T) {
	d := NewDetector(DetectorConfig{Theta: 1.5, SustainChecks: 1, Cooldown: 10 * time.Second})
	now := time.Unix(2000, 0)
	if got := d.Observe(3, now); got != Trigger {
		t.Fatalf("first violation with SustainChecks 1: %v, want trigger", got)
	}
	if got := d.Observe(3, now.Add(time.Second)); got != Cooling {
		t.Fatalf("within cooldown: %v, want cooling", got)
	}
	if got := d.Observe(3, now.Add(11*time.Second)); got != Trigger {
		t.Fatalf("after cooldown: %v, want trigger", got)
	}
}

func TestDetectorForce(t *testing.T) {
	d := NewDetector(DetectorConfig{Theta: 1.5, SustainChecks: 1, Cooldown: 10 * time.Second})
	now := time.Unix(3000, 0)
	d.Force(now)
	if got := d.Observe(3, now.Add(time.Second)); got != Cooling {
		t.Fatalf("after Force, background detector should cool down: %v", got)
	}
	if got := d.Observe(3, now.Add(11*time.Second)); got != Trigger {
		t.Fatalf("cooldown from Force elapsed: %v, want trigger", got)
	}
}

func TestDetectorDefaults(t *testing.T) {
	d := NewDetector(DetectorConfig{})
	now := time.Unix(4000, 0)
	if got := d.Observe(1.2, now); got != Balanced {
		t.Fatalf("1.2 under default theta 1.25: %v", got)
	}
	if got := d.Observe(1.3, now); got != Sustaining {
		t.Fatalf("default SustainChecks is 2: %v", got)
	}
	if got := d.Observe(1.3, now); got != Trigger {
		t.Fatalf("second violation: %v, want trigger", got)
	}
	if s := Trigger.String(); s != "trigger" {
		t.Fatalf("String = %q", s)
	}
}
