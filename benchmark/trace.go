package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"ps2stream/internal/metrics"
)

// span is one timed interval of the traced run. Spans are recorded from
// the benchmark's own files, around its calls into the program; a span's
// self time is its duration minus the part its children cover.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends.
// Only the goroutine that runs the workload records spans.
type tracer struct {
	base     time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{base: time.Now(), workload: workload}
}

// start opens a span under parent (0 for none) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, StartNs: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.base))
}

// write stores the spans as benchmark/out/trace-<workload>.json under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{t.workload, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// scrape is one reading of the program's own /statsz endpoint.
type scrape struct {
	series []metrics.JSONSeries
}

func scrapeStatsz(addr string) (*scrape, error) {
	resp, err := http.Get("http://" + addr + "/statsz")
	if err != nil {
		return nil, fmt.Errorf("scraping /statsz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /statsz: status %s", resp.Status)
	}
	var body struct {
		Series []metrics.JSONSeries `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("decoding /statsz: %w", err)
	}
	return &scrape{series: body.Series}, nil
}

func labelsMatch(have map[string]string, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if have[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}

// sum adds the value of every counter or gauge series called name whose
// labels include the given name/value pairs.
func (s *scrape) sum(name string, labels ...string) float64 {
	var total float64
	for i := range s.series {
		js := &s.series[i]
		if js.Name == name && js.Value != nil && labelsMatch(js.Labels, labels) {
			total += *js.Value
		}
	}
	return total
}

// each calls fn with the value of every matching series.
func (s *scrape) each(name string, fn func(labels map[string]string, v float64)) {
	for i := range s.series {
		if js := &s.series[i]; js.Name == name && js.Value != nil {
			fn(js.Labels, *js.Value)
		}
	}
}

func (s *scrape) histogram(name string, labels ...string) *metrics.JSONSeries {
	for i := range s.series {
		if js := &s.series[i]; js.Name == name && js.Count != nil && labelsMatch(js.Labels, labels) {
			return js
		}
	}
	return nil
}

// stageDelta is what one stage histogram gained between two scrapes.
type stageDelta struct {
	batches float64
	seconds float64
	p50us   float64
}

// stageBetween differences ps2_stage_seconds{stage} between two scrapes.
// The median is interpolated inside the bucket that holds it; the
// program's stage buckets are coarse (10 µs, 50 µs, 100 µs, 500 µs, …),
// so it is a coarse figure.
func stageBetween(a, b *scrape, stage string) stageDelta {
	ha, hb := a.histogram("ps2_stage_seconds", "stage", stage), b.histogram("ps2_stage_seconds", "stage", stage)
	if ha == nil || hb == nil {
		return stageDelta{}
	}
	d := stageDelta{batches: float64(*hb.Count - *ha.Count), seconds: *hb.Sum - *ha.Sum}
	if d.batches <= 0 || len(ha.Buckets) != len(hb.Buckets) {
		return d
	}
	half := d.batches / 2
	lo, prev := 0.0, 0.0
	for i := range hb.Buckets {
		cum := float64(hb.Buckets[i].Count - ha.Buckets[i].Count)
		hi, err := strconv.ParseFloat(hb.Buckets[i].Le, 64)
		if err != nil { // "+Inf": no upper edge to interpolate towards
			hi = lo
		}
		if cum >= half {
			frac := 0.0
			if cum > prev {
				frac = (half - prev) / (cum - prev)
			}
			d.p50us = (lo + frac*(hi-lo)) * 1e6
			return d
		}
		lo, prev = hi, cum
	}
	return d
}
