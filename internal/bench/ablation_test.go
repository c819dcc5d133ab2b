package bench

import (
	"testing"
	"time"

	"ps2stream/internal/workload"
)

// microScale keeps ablation smoke tests fast.
func microScale() Scale {
	return Scale{
		SampleObjects: 1500,
		SampleQueries: 300,
		Mu1:           400,
		Ops:           3000,
		PacedRate:     5000,
		Workers:       2,
		PerTupleWork:  time.Microsecond,
		Seed:          7,
	}
}

func TestDrainedCapacityAndPacedLatency(t *testing.T) {
	sc := microScale()
	spec := workload.TweetsUS()
	cap, err := measureThroughput(spec, workload.Q3, "hybrid", sc, sc.Workers, sc.Mu2())
	if err != nil {
		t.Fatal(err)
	}
	if cap <= 0 {
		t.Fatalf("capacity = %v", cap)
	}
	lat, err := pacedLatency(spec, workload.Q3, "hybrid", sc, cap/4, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || lat > 5*time.Second {
		t.Errorf("paced latency = %v", lat)
	}
}
