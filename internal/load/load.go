// Package load implements the workload model of the paper: the load of a
// worker (Definition 1), the load of a cell (Definition 3), the balance
// constraint L_max/L_min ≤ σ, and the cost constants c1..c4 shared by the
// partitioning and adjustment algorithms, plus the imbalance Detector
// (θ threshold + hysteresis + cooldown) driving the adaptive adjustment
// controller.
package load

import "time"

// Costs holds the per-operation cost constants of Definition 1:
//
//	L_i = c1·|O_i|·|Q^i_i| + c2·|O_i| + c3·|Q^i_i| + c4·|Q^d_i|
//
// where c1 is the average cost of checking one object against one STS
// query, c2 the cost of handling one object, c3 of one insertion, and c4
// of one deletion.
type Costs struct {
	C1 float64
	C2 float64
	C3 float64
	C4 float64
}

// DefaultCosts approximates the relative magnitudes measured on the GI2
// matching micro-benchmarks: the pairwise check is ~4 orders of magnitude
// cheaper than tuple handling, insertions cost a little more than object
// handling (multi-cell registration), deletions are cheap (tombstone
// write).
var DefaultCosts = Costs{C1: 0.0001, C2: 1.0, C3: 1.5, C4: 0.3}

// Worker evaluates Definition 1 for a worker receiving objects objects,
// inserts query insertions, and deletes query deletions.
func (c Costs) Worker(objects, inserts, deletes float64) float64 {
	return c.C1*objects*inserts + c.C2*objects + c.C3*inserts + c.C4*deletes
}

// Node estimates the load a partition unit would impose if assigned to one
// worker, given the sampled object and query counts that reach it. The
// insertion and deletion streams have equal rates in the paper's workload,
// so queries counts both as |Q^i| and |Q^d|.
func (c Costs) Node(objects, queries float64) float64 {
	return c.C1*objects*queries + c.C2*objects + c.C3*queries + c.C4*queries
}

// Cell evaluates Definition 3: L_g = n_o · n_q.
func Cell(objSeen, queries float64) float64 { return objSeen * queries }

// BalanceFactor returns L_max/L_min over the worker loads. Zero or
// negative loads are floored at a small epsilon so an idle worker yields a
// large (but finite) factor. An empty or single-element slice returns 1.
func BalanceFactor(loads []float64) float64 {
	if len(loads) < 2 {
		return 1
	}
	const eps = 1e-9
	minL, maxL := loads[0], loads[0]
	for _, l := range loads[1:] {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if maxL <= 0 {
		return 1
	}
	if minL < eps {
		minL = eps
	}
	return maxL / minL
}

// ArgMinMax returns the indices of the least and most loaded workers.
func ArgMinMax(loads []float64) (argmin, argmax int) {
	for i, l := range loads {
		if l < loads[argmin] {
			argmin = i
		}
		if l > loads[argmax] {
			argmax = i
		}
	}
	return argmin, argmax
}

// DetectorConfig tunes the adaptive controller's imbalance detector.
type DetectorConfig struct {
	// Theta is the trigger threshold on the balance factor
	// L_max/L_min — the paper's σ constraint. A window whose factor
	// exceeds Theta counts as a violation.
	Theta float64
	// SustainChecks is the hysteresis: the violation must persist for
	// this many consecutive observations before the detector fires, so a
	// single window that grazes Theta (scheduler noise, one hot batch)
	// does not trigger a migration. 1 fires immediately.
	SustainChecks int
	// Cooldown is the minimum time between triggers: after an
	// adjustment, the detector stays quiet while the migration settles
	// and the smoothed loads catch up, preventing thrash on the same
	// imbalance signal.
	Cooldown time.Duration
}

// Decision classifies one detector observation.
type Decision int

// The detector outcomes.
const (
	// Balanced: the balance factor is within Theta.
	Balanced Decision = iota
	// Sustaining: violated, but not yet for SustainChecks observations.
	Sustaining
	// Cooling: violated and sustained, but the cooldown since the last
	// trigger has not elapsed.
	Cooling
	// Trigger: the controller should adjust now.
	Trigger
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Balanced:
		return "balanced"
	case Sustaining:
		return "sustaining"
	case Cooling:
		return "cooling"
	case Trigger:
		return "trigger"
	default:
		return "unknown"
	}
}

// Detector is the θ-threshold + hysteresis + cooldown state machine of the
// adaptive adjustment controller. It is not safe for concurrent use; the
// controller owns it.
type Detector struct {
	cfg       DetectorConfig
	streak    int
	lastFire  time.Time
	everFired bool
}

// NewDetector returns a detector; zero config fields get safe defaults
// (Theta 1.25, SustainChecks 2, Cooldown 0).
func NewDetector(cfg DetectorConfig) *Detector {
	if cfg.Theta <= 1 {
		cfg.Theta = 1.25
	}
	if cfg.SustainChecks < 1 {
		cfg.SustainChecks = 2
	}
	return &Detector{cfg: cfg}
}

// Observe feeds one balance-factor observation at the given instant and
// returns the decision. A Trigger resets the hysteresis streak and starts
// the cooldown.
func (d *Detector) Observe(factor float64, now time.Time) Decision {
	if factor <= d.cfg.Theta {
		d.streak = 0
		return Balanced
	}
	d.streak++
	if d.streak < d.cfg.SustainChecks {
		return Sustaining
	}
	if d.everFired && now.Sub(d.lastFire) < d.cfg.Cooldown {
		// Keep the streak saturated so the trigger fires on the first
		// observation after the cooldown if the violation persists.
		d.streak = d.cfg.SustainChecks
		return Cooling
	}
	d.streak = 0
	d.lastFire = now
	d.everFired = true
	return Trigger
}

// Force marks a manual trigger at now, starting the cooldown as if the
// detector had fired (used by AdjustNow so an explicit adjustment also
// quiets the background controller briefly).
func (d *Detector) Force(now time.Time) {
	d.streak = 0
	d.lastFire = now
	d.everFired = true
}
