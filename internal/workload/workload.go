// Package workload synthesises the evaluation workloads of §VI-A. The
// paper uses 280M geo-tagged tweets in America (TWEETS-US) and 58M in
// Britain (TWEETS-UK) plus synthetic STS queries; this package generates
// statistically equivalent corpora — Zipf-distributed terms, hotspot-
// clustered locations with per-region topical skew — and the three query
// families:
//
//	Q1: 1–3 keywords following the tweet term distribution (power law),
//	    square regions with 1–50 km sides centred on tweet locations.
//	Q2: regions up to 100 km; at least one keyword outside the top 1%
//	    most frequent terms.
//	Q3: the space is divided into 100 equal regions, each assigned Q1 or
//	    Q2 behaviour (the mixed-preference workload of §VI-C).
//
// All generators are deterministic given their seeds.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"ps2stream/internal/geo"
	"ps2stream/internal/load"
	"ps2stream/internal/model"
	"ps2stream/internal/partition"
	"ps2stream/internal/textutil"
)

// DatasetSpec describes a synthetic spatio-textual corpus.
type DatasetSpec struct {
	// Name labels the dataset in reports ("TWEETS-US", "TWEETS-UK").
	Name string
	// Bounds is the monitored space S.
	Bounds geo.Rect
	// VocabSize is the number of distinct terms; term w%05d has Zipf
	// rank equal to its index.
	VocabSize int
	// ZipfExponent shapes the term power law (tweets ≈ 1.0).
	ZipfExponent float64
	// Hotspots is the number of city-like clusters.
	Hotspots int
	// HotspotFraction is the fraction of objects inside clusters.
	HotspotFraction float64
	// HotspotSigmaDeg is the cluster spread in degrees.
	HotspotSigmaDeg float64
	// TermsMin/TermsMax bound the distinct terms per object.
	TermsMin, TermsMax int
	// TopicSkew is the probability that a hotspot object draws terms
	// from its region's shifted topic distribution instead of the
	// global one — the spatial/textual correlation hybrid partitioning
	// exploits.
	TopicSkew float64
	// Seed fixes hotspot placement and all derived randomness.
	Seed int64
}

// TweetsUS approximates the TWEETS-US corpus shape (continental USA).
func TweetsUS() DatasetSpec {
	return DatasetSpec{
		Name:            "TWEETS-US",
		Bounds:          geo.NewRect(-125, 24, -66, 49),
		VocabSize:       200000,
		ZipfExponent:    1.0,
		Hotspots:        20,
		HotspotFraction: 0.7,
		HotspotSigmaDeg: 0.4,
		TermsMin:        3,
		TermsMax:        8,
		TopicSkew:       0.5,
		Seed:            1001,
	}
}

// TweetsUK approximates the TWEETS-UK corpus shape (Great Britain —
// smaller space, denser clustering, smaller vocabulary).
func TweetsUK() DatasetSpec {
	return DatasetSpec{
		Name:            "TWEETS-UK",
		Bounds:          geo.NewRect(-8, 50, 2, 59),
		VocabSize:       100000,
		ZipfExponent:    1.05,
		Hotspots:        10,
		HotspotFraction: 0.8,
		HotspotSigmaDeg: 0.15,
		TermsMin:        3,
		TermsMax:        8,
		TopicSkew:       0.5,
		Seed:            2002,
	}
}

// Generator produces objects from a DatasetSpec.
type Generator struct {
	spec    DatasetSpec
	vocab   []string
	zipf    *textutil.Zipf
	centers []geo.Point
	shifts  []int
	rng     *rand.Rand
	nextID  uint64

	// focus concentrates traffic on one point (the skewed-hotspot
	// workload of the adaptive-adjustment experiments): with probability
	// focusBias a location is drawn from a Gaussian around focus instead
	// of the spec's background mixture.
	focus      geo.Point
	focusSigma float64
	focusBias  float64
}

// NewGenerator returns a deterministic object generator. seed offsets the
// spec seed so multiple independent generators can share a spec.
func NewGenerator(spec DatasetSpec, seed int64) *Generator {
	normalize(&spec)
	g := &Generator{
		spec:  spec,
		vocab: make([]string, spec.VocabSize),
		zipf:  textutil.NewZipf(spec.VocabSize, spec.ZipfExponent),
		rng:   rand.New(rand.NewSource(spec.Seed ^ seed)),
	}
	for i := range g.vocab {
		g.vocab[i] = fmt.Sprintf("%s%05d", termPrefix(spec.Name), i)
	}
	// Hotspot placement depends only on the spec seed so every
	// generator for a dataset agrees on geography.
	hrng := rand.New(rand.NewSource(spec.Seed))
	g.centers = make([]geo.Point, spec.Hotspots)
	g.shifts = make([]int, spec.Hotspots)
	for i := range g.centers {
		g.centers[i] = geo.Point{
			X: spec.Bounds.Min.X + hrng.Float64()*spec.Bounds.Width(),
			Y: spec.Bounds.Min.Y + hrng.Float64()*spec.Bounds.Height(),
		}
		g.shifts[i] = hrng.Intn(spec.VocabSize)
	}
	return g
}

// termPrefix derives the lowercase vocabulary prefix ("us"/"uk") from the
// dataset name. Terms are lowercase like tokenised text, so expressions
// survive ParseExpr round-trips.
func termPrefix(name string) string {
	if name == "" {
		return "w"
	}
	return strings.ToLower(name[len(name)-2:])
}

func normalize(spec *DatasetSpec) {
	if spec.VocabSize <= 0 {
		spec.VocabSize = 10000
	}
	if spec.ZipfExponent <= 0 {
		spec.ZipfExponent = 1.0
	}
	if spec.Hotspots <= 0 {
		spec.Hotspots = 10
	}
	if spec.TermsMin <= 0 {
		spec.TermsMin = 3
	}
	if spec.TermsMax < spec.TermsMin {
		spec.TermsMax = spec.TermsMin + 5
	}
	if spec.HotspotSigmaDeg <= 0 {
		spec.HotspotSigmaDeg = 0.3
	}
	if !spec.Bounds.Valid() || spec.Bounds.Area() == 0 {
		spec.Bounds = geo.NewRect(-125, 24, -66, 49)
	}
}

// Vocab exposes the term table (rank order).
func (g *Generator) Vocab() []string { return g.vocab }

// NumHotspots returns how many hotspot clusters the dataset has.
func (g *Generator) NumHotspots() int { return len(g.centers) }

// HotspotCenter returns the centre of hotspot i (deterministic per spec
// seed, shared by every generator over the same spec).
func (g *Generator) HotspotCenter(i int) geo.Point { return g.centers[i] }

// Focus concentrates a fraction of future locations on one point: with
// probability bias in (0, 1] the location is drawn from a Gaussian with
// the given sigma (degrees; <= 0 uses the spec's hotspot sigma) around p,
// otherwise from the spec's normal background mixture. bias <= 0 clears
// the focus. Focus models a flash-crowd / hotspot-shift workload — the
// traffic skew the adaptive adjustment controller exists to absorb.
func (g *Generator) Focus(p geo.Point, sigmaDeg, bias float64) {
	if bias <= 0 {
		g.focusBias = 0
		return
	}
	if bias > 1 {
		bias = 1
	}
	if sigmaDeg <= 0 {
		sigmaDeg = g.spec.HotspotSigmaDeg
	}
	g.focus, g.focusSigma, g.focusBias = p, sigmaDeg, bias
}

// FocusHotspot is Focus aimed at hotspot cluster i (mod NumHotspots).
func (g *Generator) FocusHotspot(i int, bias float64) {
	g.Focus(g.centers[((i%len(g.centers))+len(g.centers))%len(g.centers)], 0, bias)
}

// Location draws a location: focus-concentrated with probability
// focusBias when a Focus is set, hotspot-clustered with probability
// HotspotFraction, uniform otherwise. The returned hotspot index is -1
// for background and focused locations.
func (g *Generator) Location() (geo.Point, int) {
	if g.focusBias > 0 && g.rng.Float64() < g.focusBias {
		p := geo.Point{
			X: g.focus.X + g.rng.NormFloat64()*g.focusSigma,
			Y: g.focus.Y + g.rng.NormFloat64()*g.focusSigma,
		}
		return g.clamp(p), -1
	}
	if g.rng.Float64() < g.spec.HotspotFraction {
		h := g.rng.Intn(len(g.centers))
		c := g.centers[h]
		p := geo.Point{
			X: c.X + g.rng.NormFloat64()*g.spec.HotspotSigmaDeg,
			Y: c.Y + g.rng.NormFloat64()*g.spec.HotspotSigmaDeg,
		}
		return g.clamp(p), h
	}
	p := geo.Point{
		X: g.spec.Bounds.Min.X + g.rng.Float64()*g.spec.Bounds.Width(),
		Y: g.spec.Bounds.Min.Y + g.rng.Float64()*g.spec.Bounds.Height(),
	}
	return p, -1
}

func (g *Generator) clamp(p geo.Point) geo.Point {
	b := g.spec.Bounds
	if p.X < b.Min.X {
		p.X = b.Min.X
	}
	if p.X > b.Max.X {
		p.X = b.Max.X
	}
	if p.Y < b.Min.Y {
		p.Y = b.Min.Y
	}
	if p.Y > b.Max.Y {
		p.Y = b.Max.Y
	}
	return p
}

// term draws a term rank, applying the hotspot topic shift when inside a
// cluster.
func (g *Generator) term(hotspot int) string {
	rank := g.zipf.Rank(g.rng.Float64())
	if hotspot >= 0 && g.rng.Float64() < g.spec.TopicSkew {
		rank = (rank + g.shifts[hotspot]) % g.spec.VocabSize
	}
	return g.vocab[rank]
}

// Object generates the next object.
func (g *Generator) Object() *model.Object {
	loc, h := g.Location()
	n := g.spec.TermsMin
	if g.spec.TermsMax > g.spec.TermsMin {
		n += g.rng.Intn(g.spec.TermsMax - g.spec.TermsMin + 1)
	}
	terms := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for tries := 0; len(terms) < n && tries < 4*n; tries++ {
		t := g.term(h)
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		terms = append(terms, t)
	}
	g.nextID++
	return &model.Object{ID: g.nextID, Terms: terms, Loc: loc}
}

// QueryKind selects a query family.
type QueryKind int

// The three query families of §VI.
const (
	Q1 QueryKind = iota + 1
	Q2
	Q3
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case Q1:
		return "Q1"
	case Q2:
		return "Q2"
	case Q3:
		return "Q3"
	default:
		return fmt.Sprintf("QueryKind(%d)", int(k))
	}
}

// QueryGenerator produces STS queries of one family over a dataset.
type QueryGenerator struct {
	kind QueryKind
	gen  *Generator
	rng  *rand.Rand
	// regionKind assigns Q1/Q2 behaviour to each of the 10×10 regions
	// (Q3 only).
	regionKind []QueryKind
	nextID     uint64
}

// Q3Regions is the per-axis region count for the Q3 workload (10×10 = the
// paper's "100 regions of equal size").
const Q3Regions = 10

// NewQueryGenerator builds a generator for the family over the dataset.
func NewQueryGenerator(spec DatasetSpec, kind QueryKind, seed int64) *QueryGenerator {
	qg := &QueryGenerator{
		kind: kind,
		gen:  NewGenerator(spec, seed^0x5157),
		rng:  rand.New(rand.NewSource(spec.Seed ^ seed ^ 0x9157)),
	}
	if kind == Q3 {
		qg.regionKind = make([]QueryKind, Q3Regions*Q3Regions)
		for i := range qg.regionKind {
			if qg.rng.Intn(2) == 0 {
				qg.regionKind[i] = Q1
			} else {
				qg.regionKind[i] = Q2
			}
		}
	}
	return qg
}

// regionOf maps a point to its Q3 region index.
func (qg *QueryGenerator) regionOf(p geo.Point) int {
	b := qg.gen.spec.Bounds
	x := int((p.X - b.Min.X) / b.Width() * Q3Regions)
	y := int((p.Y - b.Min.Y) / b.Height() * Q3Regions)
	if x < 0 {
		x = 0
	}
	if x >= Q3Regions {
		x = Q3Regions - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= Q3Regions {
		y = Q3Regions - 1
	}
	return y*Q3Regions + x
}

// FlipRegions switches the Q1/Q2 assignment of the given fraction of Q3
// regions — the workload drift of the Figure 16 experiment ("every
// interval ... the types of queries in 10% of the regions switch between
// STS-US-Q1 and STS-US-Q2"). No-op for Q1/Q2 generators.
func (qg *QueryGenerator) FlipRegions(fraction float64) {
	if qg.regionKind == nil {
		return
	}
	n := int(fraction * float64(len(qg.regionKind)))
	for i := 0; i < n; i++ {
		r := qg.rng.Intn(len(qg.regionKind))
		if qg.regionKind[r] == Q1 {
			qg.regionKind[r] = Q2
		} else {
			qg.regionKind[r] = Q1
		}
	}
}

// Query generates the next STS query.
func (qg *QueryGenerator) Query() *model.Query {
	center, _ := qg.gen.Location() // "the center is randomly selected from the locations of tweets"
	kind := qg.kind
	if kind == Q3 {
		kind = qg.regionKind[qg.regionOf(center)]
	}
	var sideKm float64
	if kind == Q1 {
		sideKm = 1 + qg.rng.Float64()*49
	} else {
		sideKm = 1 + qg.rng.Float64()*99
	}
	region := geo.RectAround(center, sideKm, sideKm).Clip(qg.gen.spec.Bounds)

	nKw := 1 + qg.rng.Intn(3)
	terms := make([]string, 0, nKw)
	seen := map[string]struct{}{}
	add := func(t string) {
		if _, dup := seen[t]; !dup {
			seen[t] = struct{}{}
			terms = append(terms, t)
		}
	}
	if kind == Q2 {
		// Q2 keywords avoid the top 1% most frequent terms. The paper
		// requires "at least one keyword that is not in the top 1%";
		// its Figure 6(b) analysis ("the keywords in STS-US-Q2 ... are
		// less frequent, which improves the performance of
		// text-partitioning") only follows when the remaining keywords
		// are infrequent too — an OR over a head term would force
		// every object carrying it to be duplicated. Q2 subscriptions
		// therefore model niche topics: every keyword is drawn
		// uniformly from outside the top 1%.
		topCut := qg.gen.spec.VocabSize / 100
		for tries := 0; len(terms) < nKw && tries < 16*nKw; tries++ {
			add(qg.gen.vocab[topCut+qg.rng.Intn(qg.gen.spec.VocabSize-topCut)])
		}
	}
	for tries := 0; len(terms) < nKw && tries < 8*nKw; tries++ {
		add(qg.gen.term(-1))
	}
	var expr model.Expr
	if qg.rng.Intn(2) == 0 {
		expr = model.And(terms...)
	} else {
		expr = model.Or(terms...)
	}
	qg.nextID++
	return &model.Query{
		ID:         qg.nextID,
		Expr:       expr,
		Region:     region,
		Subscriber: qg.nextID % 1000,
	}
}

// Sample draws an independent workload sample for partition builders.
func Sample(spec DatasetSpec, kind QueryKind, nObj, nQry int, seed int64) *partition.Sample {
	og := NewGenerator(spec, seed^0xABCD)
	qg := NewQueryGenerator(spec, kind, seed^0xDCBA)
	objs := make([]*model.Object, nObj)
	for i := range objs {
		objs[i] = og.Object()
	}
	qrys := make([]*model.Query, nQry)
	for i := range qrys {
		qrys[i] = qg.Query()
	}
	return partition.NewSample(objs, qrys, spec.Bounds, load.DefaultCosts)
}

// SampleFocused draws a sample concentrated on hotspot cluster `hotspot`
// with the given bias and Gaussian sigma in degrees (<= 0 uses the
// dataset's hotspot sigma). Both objects and query centres focus — the
// sample is "yesterday's traffic", where subscribers cluster around the
// same event the publishers do. The adaptive adjustment experiments open
// the system on such a sample and then shift the live object traffic to a
// different hotspot.
func SampleFocused(spec DatasetSpec, kind QueryKind, nObj, nQry int, seed int64,
	hotspot int, sigmaDeg, bias float64) *partition.Sample {
	og := NewGenerator(spec, seed^0xABCD)
	center := og.centers[((hotspot%len(og.centers))+len(og.centers))%len(og.centers)]
	og.Focus(center, sigmaDeg, bias)
	qg := NewQueryGenerator(spec, kind, seed^0xDCBA)
	qg.gen.Focus(center, sigmaDeg, bias)
	objs := make([]*model.Object, nObj)
	for i := range objs {
		objs[i] = og.Object()
	}
	qrys := make([]*model.Query, nQry)
	for i := range qrys {
		qrys[i] = qg.Query()
	}
	return partition.NewSample(objs, qrys, spec.Bounds, load.DefaultCosts)
}
