package ps2stream

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// scrape fetches one admin endpoint body.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// promValue extracts the value of the first sample of a series from
// Prometheus text exposition.
func promValue(t *testing.T, body, series string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + `(?:\{[^}]*\})? (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("series %s not found in exposition", series)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %s: unparseable value %q", series, m[1])
	}
	return v
}

// TestAdminEndpointsEndToEnd runs a system with the admin server on,
// scrapes /metrics and /statsz mid-run, and asserts the core series are
// present and monotone across scrapes.
func TestAdminEndpointsEndToEnd(t *testing.T) {
	var c collector
	sys, err := Open(Options{
		Region:      usRegion,
		Workers:     2,
		Dispatchers: 1,
		AdminAddr:   "127.0.0.1:0",
		OnMatch:     c.add,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	addr := sys.AdminAddr()
	if addr == "" {
		t.Fatal("AdminAddr is empty with Options.AdminAddr set")
	}

	for i := 0; i < 20; i++ {
		if err := sys.Subscribe(Subscription{
			ID:     uint64(i + 1),
			Query:  fmt.Sprintf("term%d", i%7),
			Region: RegionAround(30+float64(i%15), -110+float64(i*3%40), 500, 500),
		}); err != nil {
			t.Fatal(err)
		}
	}
	publish := func(n, base int) {
		for i := 0; i < n; i++ {
			sys.Publish(Message{
				ID:   uint64(base + i),
				Text: fmt.Sprintf("term%d term%d", i%7, (i+3)%7),
				Lat:  30 + float64(i%15),
				Lon:  -110 + float64(i*5%40),
			})
		}
		sys.Flush()
	}
	publish(500, 10000)

	body := scrape(t, addr, "/metrics")
	for _, series := range []string{
		"ps2_ops_processed_total",
		"ps2_matches_delivered_total",
		"ps2_matches_solo_total",
		`ps2_bolt_processed_total{bolt="worker"}`,
		`ps2_bolt_emitted_total{bolt="worker"}`,
		`ps2_bolt_processed_total{bolt="merger"}`,
		`ps2_stage_seconds_bucket{stage="dispatch"`,
		`ps2_stage_seconds_bucket{stage="worker"`,
		`ps2_stage_seconds_bucket{stage="merge"`,
		`ps2_worker_window_load{worker="0"}`,
		`ps2_worker_ops_total{kind="object",worker="1"}`,
		"ps2_migrations_total",
		"ps2_tuple_latency_seconds_count",
		`ps2_queue_depth_batches{bolt="worker"}`,
		`ps2_ingest_depth_ops{dispatcher="0"}`,
		`ps2_ingest_cap_ops{dispatcher="0"}`,
		"ps2_ingest_blocked_total",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics is missing %s", series)
		}
	}
	processed := promValue(t, body, "ps2_ops_processed_total")
	matches := promValue(t, body, "ps2_matches_delivered_total")
	stageCount := promValue(t, body, "ps2_stage_seconds_count")
	if processed < 520 { // 20 subscriptions + 500 objects
		t.Errorf("ps2_ops_processed_total = %v, want >= 520", processed)
	}
	if matches <= 0 {
		t.Error("vacuous: no matches delivered before first scrape")
	}
	if stageCount <= 0 {
		t.Error("stage histograms observed no batches")
	}

	publish(500, 20000)
	body2 := scrape(t, addr, "/metrics")
	if p2 := promValue(t, body2, "ps2_ops_processed_total"); p2 < processed+500 {
		t.Errorf("ps2_ops_processed_total not monotone across scrapes: %v then %v", processed, p2)
	}
	if m2 := promValue(t, body2, "ps2_matches_delivered_total"); m2 < matches {
		t.Errorf("ps2_matches_delivered_total went backwards: %v then %v", matches, m2)
	}
	if s2 := promValue(t, body2, "ps2_stage_seconds_count"); s2 <= stageCount {
		t.Errorf("ps2_stage_seconds_count not monotone: %v then %v", stageCount, s2)
	}

	var statsz struct {
		Role   string `json:"role"`
		Series []struct {
			Name string `json:"name"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(scrape(t, addr, "/statsz")), &statsz); err != nil {
		t.Fatalf("/statsz is not JSON: %v", err)
	}
	if statsz.Role != "dispatcher" {
		t.Errorf("/statsz role = %q, want dispatcher", statsz.Role)
	}
	names := make(map[string]bool, len(statsz.Series))
	for _, s := range statsz.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"ps2_ops_processed_total", "ps2_stage_seconds", "ps2_worker_window_load"} {
		if !names[want] {
			t.Errorf("/statsz is missing series %s", want)
		}
	}

	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if err := json.Unmarshal([]byte(scrape(t, addr, "/healthz")), &health); err != nil {
		t.Fatalf("/healthz is not JSON: %v", err)
	}
	if health.Status != "ok" || health.Role != "dispatcher" {
		t.Errorf("/healthz = %+v, want status ok role dispatcher", health)
	}
	scrape(t, addr, "/debug/pprof/cmdline") // pprof must be mounted
}

// TestStatsRacesPublishAndAdjust drives Stats, Publish and AdjustNow
// concurrently; the -race build turns any unsynchronised snapshot read
// into a failure.
func TestStatsRacesPublishAndAdjust(t *testing.T) {
	sys, err := Open(Options{
		Region:      usRegion,
		Workers:     4,
		Dispatchers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for i := 0; i < 30; i++ {
		if err := sys.Subscribe(Subscription{
			ID:     uint64(i + 1),
			Query:  fmt.Sprintf("term%d", i%5),
			Region: RegionAround(32+float64(i%12), -100+float64(i%30), 600, 600),
		}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 4000; i++ {
			sys.Publish(Message{
				ID:   uint64(50000 + i),
				Text: fmt.Sprintf("term%d", i%5),
				Lat:  32 + float64(i%12),
				Lon:  -100 + float64(i%30),
			})
		}
		close(done)
	}()
	go func() {
		defer wg.Done()
		for {
			st := sys.Stats()
			if st.Processed < 0 {
				t.Error("impossible negative Processed")
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			sys.AdjustNow()
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	wg.Wait()
	sys.Flush()
	if st := sys.Stats(); st.Processed < 4030 {
		t.Errorf("Processed = %d after flush, want >= 4030", st.Processed)
	}
}

// lockedBuf is a slog sink safe for the controller goroutine to write
// while the test reads after Close.
type lockedBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestAdjustDecisionTrace asserts the controller emits its structured
// decision trace through Options.Logger: every detector check is logged,
// and a triggered adjustment logs the trigger and its migrations.
func TestAdjustDecisionTrace(t *testing.T) {
	var buf lockedBuf
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	sys, err := Open(Options{
		Region:      usRegion,
		Workers:     2,
		Dispatchers: 1,
		Logger:      logger,
		Adjust: AdjustOptions{
			Auto:     true,
			Interval: 5 * time.Millisecond,
			Theta:    1.05,
			Cooldown: 10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := sys.Subscribe(Subscription{
			ID:     uint64(i + 1),
			Query:  fmt.Sprintf("term%d", i%5),
			Region: RegionAround(31+float64(i%14), -105+float64(i%35), 500, 500),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A skewed stream (all objects in one corner) with paced publishing
	// so the controller sees live traffic across several intervals.
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		sys.Publish(Message{
			ID:   uint64(90000 + i),
			Text: fmt.Sprintf("term%d", i%5),
			Lat:  32 + float64(i%3),
			Lon:  -104 + float64(i%3),
		})
		if i%64 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		if strings.Contains(buf.String(), "adjust check") {
			break
		}
	}
	sys.Flush()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	if !strings.Contains(trace, "adjust check") {
		t.Fatalf("no detector verdicts in the trace:\n%.2000s", trace)
	}
	if !strings.Contains(trace, "decision=") || !strings.Contains(trace, "imbalance=") {
		t.Errorf("detector verdicts lack decision/imbalance attrs:\n%.2000s", trace)
	}
}
