package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry is a labeled metric registry with two exposition formats:
// Prometheus text (for /metrics scrapes) and a JSON snapshot (for
// /statsz). It is stdlib-only by design.
//
// Series come in two flavours. Owned series (Counter, Gauge, Histogram)
// allocate a live instrument the caller updates on the hot path.
// Func-backed series (CounterFunc, GaugeFunc, HistogramFunc) read an
// existing value through a closure at scrape time only, so wiring an
// already-instrumented subsystem into the registry adds zero hot-path
// cost — the pattern used for every pre-existing counter in core.
//
// Registration is idempotent for owned series: asking for the same
// name+labels again returns the same instrument. Registering the same
// name with a different series kind panics (a programming error, like
// Prometheus client libraries treat it).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Series kinds, exposed in both exposition formats.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

type family struct {
	name   string
	help   string
	kind   string
	series map[string]*series
}

type series struct {
	labels    []Label // sorted by name
	counter   *Counter
	gauge     *Gauge
	counterFn func() int64
	gaugeFn   func() float64
	histFn    func() *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func sortLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	return ls
}

func labelSig(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// register returns the series for name+labels, creating family and
// series as needed. Caller holds r.mu.
func (r *Registry) register(name, help, kind string, labels []Label) (*series, bool) {
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	ls := sortLabels(labels)
	sig := labelSig(ls)
	if s, ok := f.series[sig]; ok {
		return s, false
	}
	s := &series{labels: ls}
	f.series[sig] = s
	return s, true
}

// Counter returns the owned counter for name+labels, registering it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.register(name, help, KindCounter, labels)
	if fresh {
		s.counter = &Counter{}
	}
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %s{%s} registered func-backed, requested owned", name, labelSig(s.labels)))
	}
	return s.counter
}

// CounterFunc registers a counter whose value is read through fn at
// scrape time. Re-registering the same name+labels replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.register(name, help, KindCounter, labels)
	s.counter, s.counterFn = nil, fn
}

// Gauge returns the owned gauge for name+labels, registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.register(name, help, KindGauge, labels)
	if fresh {
		s.gauge = &Gauge{}
	}
	if s.gauge == nil {
		panic(fmt.Sprintf("metrics: %s{%s} registered func-backed, requested owned", name, labelSig(s.labels)))
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read through fn at scrape
// time. Re-registering the same name+labels replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.register(name, help, KindGauge, labels)
	s.gauge, s.gaugeFn = nil, fn
}

// Histogram returns the owned histogram for name+labels, registering it
// on first use with the given bounds (nil = DefaultLatencyBounds).
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, fresh := r.register(name, help, KindHistogram, labels)
	if fresh {
		h := NewHistogram(bounds)
		s.histFn = func() *Histogram { return h }
	}
	return s.histFn()
}

// HistogramFunc registers a histogram read through fn at scrape time —
// used where the live histogram is swapped out (e.g. latency resets
// rotate an atomic.Pointer). fn may return nil for "no data yet".
func (r *Registry) HistogramFunc(name, help string, fn func() *Histogram, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, _ := r.register(name, help, KindHistogram, labels)
	s.histFn = fn
}

// famSnapshot is one family as a scrape reads it: its series copied
// under Registry.mu, in label-signature order.
type famSnapshot struct {
	name, help, kind string
	series           []series
}

// sortedFamilies snapshots every family and its series under the lock,
// in deterministic order (by name, then label signature), so a scrape
// reads no map or series that a concurrent registration writes.
func (r *Registry) sortedFamilies() []famSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]famSnapshot, 0, len(r.fams))
	for _, f := range r.fams {
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		fs := famSnapshot{name: f.name, help: f.help, kind: f.kind, series: make([]series, len(sigs))}
		for i, sig := range sigs {
			fs.series[i] = *f.series[sig]
		}
		fams = append(fams, fs)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (s *series) counterValue() int64 {
	if s.counterFn != nil {
		return s.counterFn()
	}
	return s.counter.Value()
}

func (s *series) gaugeValue() float64 {
	if s.gaugeFn != nil {
		return s.gaugeFn()
	}
	return float64(s.gauge.Value())
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// promLabels renders {a="x",b="y"} plus any extra pairs (used for the
// histogram le label); empty when there are none.
func promLabels(ls []Label, extra ...Label) string {
	if len(ls)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	n := 0
	for _, l := range append(append([]Label(nil), ls...), extra...) {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Name, escapeLabelValue(l.Value))
		n++
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus writes every series in the Prometheus text exposition
// format (version 0.0.4). Histogram buckets are cumulative with bounds
// in seconds, matching Prometheus convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for i := range f.series {
			s := &f.series[i]
			var err error
			switch f.kind {
			case KindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(s.labels), s.counterValue())
			case KindGauge:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, promLabels(s.labels), formatFloat(s.gaugeValue()))
			case KindHistogram:
				err = writePromHistogram(w, f.name, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, s *series) error {
	h := s.histFn()
	if h == nil {
		h = NewHistogram(nil)
	}
	bounds, counts := h.Buckets()
	var cum int64
	for i, b := range bounds {
		cum += counts[i]
		le := formatFloat(b.Seconds())
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(s.labels, L("le", le)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(s.labels, L("le", "+Inf")), cum); err != nil {
		return err
	}
	sum := float64(h.sum.Load()) / float64(time.Second)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(s.labels), formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(s.labels), h.Count())
	return err
}

// JSONSeries is one series in the /statsz snapshot. Exactly one of
// Value (counter/gauge) or the histogram fields is populated, keyed by
// Type.
type JSONSeries struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`

	// Counter and gauge series.
	Value *float64 `json:"value,omitempty"`

	// Histogram series (durations in seconds).
	Count   *int64       `json:"count,omitempty"`
	Sum     *float64     `json:"sum_seconds,omitempty"`
	Mean    *float64     `json:"mean_seconds,omitempty"`
	P50     *float64     `json:"p50_seconds,omitempty"`
	P95     *float64     `json:"p95_seconds,omitempty"`
	P99     *float64     `json:"p99_seconds,omitempty"`
	Max     *float64     `json:"max_seconds,omitempty"`
	Buckets []JSONBucket `json:"buckets,omitempty"`
}

// JSONBucket is one cumulative histogram bucket; Le is the upper bound
// in seconds, empty for the +Inf bucket.
type JSONBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// WriteJSON writes the /statsz snapshot: {"series": [...]} with every
// series in deterministic order.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Series []JSONSeries `json:"series"`
	}{r.Gather()})
}

// Gather returns every series as JSON-ready values in deterministic
// order (by name, then label signature).
func (r *Registry) Gather() []JSONSeries {
	var out []JSONSeries
	for _, f := range r.sortedFamilies() {
		for i := range f.series {
			s := &f.series[i]
			js := JSONSeries{Name: f.name, Type: f.kind}
			if len(s.labels) > 0 {
				js.Labels = make(map[string]string, len(s.labels))
				for _, l := range s.labels {
					js.Labels[l.Name] = l.Value
				}
			}
			switch f.kind {
			case KindCounter:
				v := float64(s.counterValue())
				js.Value = &v
			case KindGauge:
				v := s.gaugeValue()
				js.Value = &v
			case KindHistogram:
				h := s.histFn()
				if h == nil {
					h = NewHistogram(nil)
				}
				snap := h.Snapshot()
				count := snap.Count
				sum := float64(h.sum.Load()) / float64(time.Second)
				mean := snap.Mean.Seconds()
				p50 := snap.P50.Seconds()
				p95 := snap.P95.Seconds()
				p99 := snap.P99.Seconds()
				mx := snap.Max.Seconds()
				js.Count, js.Sum, js.Mean = &count, &sum, &mean
				js.P50, js.P95, js.P99, js.Max = &p50, &p95, &p99, &mx
				bounds, counts := h.Buckets()
				var cum int64
				for i, b := range bounds {
					cum += counts[i]
					js.Buckets = append(js.Buckets, JSONBucket{Le: formatFloat(b.Seconds()), Count: cum})
				}
				cum += counts[len(counts)-1]
				js.Buckets = append(js.Buckets, JSONBucket{Le: "+Inf", Count: cum})
			}
			out = append(out, js)
		}
	}
	return out
}
