package main

import (
	"slices"

	"ps2stream/internal/model"
)

// expectedSets is the brute force the deliveries are checked against:
// for each sampled pool object, the ids of every standing subscription
// whose predicate it satisfies, by model.Query.Matches alone — no index,
// no routing. Objects-only workloads register every subscription before
// the first object, so the delivered set must equal this one exactly.
func expectedSets(standing []*model.Query, objs []*model.Object, sample []int) [][]uint64 {
	out := make([][]uint64, len(sample))
	for slot, idx := range sample {
		o := objs[idx]
		for _, q := range standing {
			if q.Matches(o) {
				out[slot] = append(out[slot], q.ID)
			}
		}
		slices.Sort(out[slot])
	}
	return out
}

// checkResult counts what the exact check found on the sampled objects.
type checkResult struct {
	Objects    int   `json:"objects_checked"`
	Expected   int64 `json:"deliveries_expected"`
	Missing    int64 `json:"missing"`
	Spurious   int64 `json:"spurious"`
	Duplicated int64 `json:"duplicated"`
	// Overflow is deliveries on sampled objects that did not fit the log
	// and so could not be checked; they count as wrong.
	Overflow int64 `json:"log_overflow"`
}

func (c checkResult) wrong() int64 { return c.Missing + c.Spurious + c.Duplicated + c.Overflow }

// checkDeliveries compares, for every published copy of every sampled
// object, the delivered standing-subscription ids with the brute force.
// Deliveries to churning subscriptions are left out here; the recorder
// already checked their predicate.
func checkDeliveries(rec *recorder, sample []int, expected [][]uint64, objectsPublished uint64) checkResult {
	var res checkResult
	n := rec.logN.Load()
	if n > int64(len(rec.log)) {
		res.Overflow = n - int64(len(rec.log))
		n = int64(len(rec.log))
	}
	byMsg := make(map[uint64][]uint64)
	for _, d := range rec.log[:n] {
		if d.sub < churnIDBase {
			byMsg[d.msg] = append(byMsg[d.msg], d.sub)
		}
	}
	pool := uint64(len(rec.in.pool))
	for slot, idx := range sample {
		want := expected[slot]
		for g := uint64(idx); g < objectsPublished; g += pool {
			got := byMsg[g+1]
			delete(byMsg, g+1)
			slices.Sort(got)
			res.Objects++
			res.Expected += int64(len(want))
			i, j := 0, 0
			for i < len(want) || j < len(got) {
				switch {
				case j > 0 && j < len(got) && got[j] == got[j-1]:
					res.Duplicated++
					j++
				case j == len(got) || (i < len(want) && want[i] < got[j]):
					res.Missing++
					i++
				case i == len(want) || got[j] < want[i]:
					res.Spurious++
					j++
				default:
					i++
					j++
				}
			}
		}
	}
	// Whatever is left was delivered for a message that was never
	// published.
	for _, subs := range byMsg {
		res.Spurious += int64(len(subs))
	}
	return res
}
