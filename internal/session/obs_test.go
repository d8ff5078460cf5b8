package session

// Coverage for the observability surface: the /v1/metrics Prometheus
// exposition (series presence, labels, monotone counters across
// scrapes, scrape-during-advance safety) and the /v1/healthz JSON
// shape, which is pinned here because it is now rebuilt from the
// registry's gathered samples rather than hand-assembled — a shape
// drift would break every dashboard and the piscaled smoke mode.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrape GETs /v1/metrics and returns the per-series values keyed by
// the full series line id (name{labels}).
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("metrics Content-Type %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics: unparseable line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics: bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestMetricsEndpointDuringAdvance(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}

	before := scrape(t, srv.URL)

	// Scrape mid-advance: the kernel goroutine is inside RunTo slices
	// while these GETs read the session's cached stats — the race
	// detector (tier-1 runs this package with -race in CI) plus the
	// zero-perturbation gate make this exercise meaningful.
	done := make(chan error, 1)
	go func() { done <- s.Advance(30 * time.Second) }()
	during := scrape(t, srv.URL)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("advance did not finish")
	}
	after := scrape(t, srv.URL)

	if len(after) < 20 {
		t.Fatalf("only %d series exposed, want >= 20", len(after))
	}
	sess := `{session="` + s.ID + `"}`
	core := []string{
		"pisim_sessions", "pisim_images",
		"pisim_manager_images_created", "pisim_manager_images_shared",
		"pisim_manager_image_forks", "pisim_manager_images_quarantined",
		"pisim_manager_journal_records", "pisim_manager_sessions_created",
		"pisim_manager_sessions_closed", "pisim_manager_sessions_failed",
		"pisim_manager_sessions_quarantined", "pisim_manager_sessions_recovered",
		"pisim_manager_session_forks",
		"pisim_session_offset_ns" + sess,
		"pisim_session_advances_total" + sess,
		"pisim_session_mailbox_depth" + sess,
		"pisim_kernel_virtual_time_seconds" + sess,
		"pisim_sched_events_scheduled_total" + sess,
		"pisim_sched_events_fired_total" + sess,
		"pisim_sched_events_pending" + sess,
		"pisim_net_flushes_total" + sess,
		"pisim_net_domains_solved_total" + sess,
		"pisim_net_flows_committed_total" + sess,
		"pisim_sdn_packet_ins_total" + sess,
		"pisim_sdn_route_cache_hits_total" + sess,
		"pisim_power_watts" + sess,
		"pisim_session_advance_slice_seconds_count" + sess,
	}
	for _, name := range core {
		if _, ok := after[name]; !ok {
			t.Errorf("core series %s missing from exposition", name)
		}
	}

	// Counters must be monotone across the three scrapes, and the
	// kernel must visibly have moved.
	monotone := []string{
		"pisim_sched_events_fired_total" + sess,
		"pisim_net_flushes_total" + sess,
		"pisim_net_flows_committed_total" + sess,
		"pisim_sdn_packet_ins_total" + sess,
		"pisim_session_events_total" + sess,
	}
	for _, name := range monotone {
		if before[name] > during[name] || during[name] > after[name] {
			t.Errorf("%s not monotone: %v -> %v -> %v", name, before[name], during[name], after[name])
		}
	}
	if after["pisim_sched_events_fired_total"+sess] <= before["pisim_sched_events_fired_total"+sess] {
		t.Errorf("events fired did not grow over a 30s advance")
	}
	if after["pisim_session_offset_ns"+sess] != float64(30*time.Second) {
		t.Errorf("offset gauge %v, want %v", after["pisim_session_offset_ns"+sess], float64(30*time.Second))
	}
	if after["pisim_session_advance_slice_seconds_count"+sess] == 0 {
		t.Errorf("advance slice histogram never observed")
	}
}

// TestHealthzShape pins the healthz JSON contract now that its numbers
// come from the observability registry: top-level keys, per-session
// detail keys, and agreement between the detail and the session's own
// accessors at a paused instant.
func TestHealthzShape(t *testing.T) {
	mgr, srv := testServer(t)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		OK            bool    `json:"ok"`
		Sessions      int     `json:"sessions"`
		Images        int     `json:"images"`
		EventsDropped float64 `json:"events_dropped"`
		SessionDetail []struct {
			ID            string  `json:"id"`
			State         string  `json:"state"`
			Failure       string  `json:"failure"`
			OffsetNS      int64   `json:"offset_ns"`
			DurableNS     int64   `json:"durable_offset_ns"`
			JournalLagNS  int64   `json:"journal_lag_ns"`
			Subscribers   int     `json:"subscribers"`
			EventsDropped float64 `json:"events_dropped"`
		} `json:"session_detail"`
		Quarantined map[string]string  `json:"sessions_quarantined"`
		Metrics     map[string]float64 `json:"metrics"`
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("healthz did not decode: %v\n%s", err, raw)
	}
	// Pin the exact key set of a detail entry: a renamed or dropped key
	// must fail here, not in a dashboard.
	var loose struct {
		Detail []map[string]any `json:"session_detail"`
	}
	if err := json.Unmarshal(raw, &loose); err != nil {
		t.Fatal(err)
	}
	if len(loose.Detail) != 1 {
		t.Fatalf("healthz lists %d sessions, want 1", len(loose.Detail))
	}
	for _, key := range []string{"id", "state", "failure", "offset_ns", "durable_offset_ns",
		"journal_lag_ns", "subscribers", "events_dropped"} {
		if _, ok := loose.Detail[0][key]; !ok {
			t.Errorf("healthz detail missing key %q", key)
		}
	}

	if !body.OK || body.Sessions != 1 || body.Images != 1 {
		t.Fatalf("healthz headline wrong: %+v", body)
	}
	d := body.SessionDetail[0]
	if d.ID != s.ID || d.State != StateRunning || d.Failure != "" {
		t.Fatalf("healthz detail wrong: %+v", d)
	}
	if d.OffsetNS != int64(20*time.Second) {
		t.Errorf("healthz offset %d, want %d", d.OffsetNS, int64(20*time.Second))
	}
	// Memory-only manager: durable offset tracks nothing, lag clamps at 0.
	if d.JournalLagNS < 0 {
		t.Errorf("negative journal lag %d", d.JournalLagNS)
	}
	if body.Metrics["sessions_created"] != 1 {
		t.Errorf("service metrics missing sessions_created: %v", body.Metrics)
	}
}
