// The -smoke gate: a self-contained end-to-end exercise of the session
// API over real HTTP, used by CI. It boots the daemon on a loopback
// listener, builds a base image from megafleet-1000, forks a session,
// advances it, injects a divergent fault, checkpoints, forks a sibling
// mid-flight and runs both to the end — then proves the service kept
// the determinism contract: both forks' trace digests must be
// bit-identical to each other AND to the same history performed on a
// bare scenario.Run in-process (cold build, run to the fork point,
// inject the same fault, finish). The whole drive must finish inside
// the wall budget.
//
// The gate also scrapes GET /v1/metrics before, during and after the
// first final advance: the mid-advance exposition must carry ≥20
// series including the core set from every layer, and counters must be
// monotone across the scrapes — proving the observability registry is
// live under load without perturbing the digests checked above.
package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/scenario"
	"repro/internal/session"
)

func runSmoke(budget time.Duration) error {
	start := time.Now()
	left := func() time.Duration { return budget - time.Since(start) }

	mgr := session.NewManager()
	defer mgr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mgr.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("smoke: session API on %s (budget %v)\n", base, budget)

	const (
		scen     = "megafleet-1000"
		imageAt  = 30 * time.Second
		forkAt   = 60 * time.Second
		faultAt  = 70 * time.Second
		faultOut = 20 * time.Second
	)
	fault := cliconfig.FaultRequest{
		Kind: "rack-fail", Rack: 3,
		At: cliconfig.Duration(faultAt), Outage: cliconfig.Duration(faultOut),
	}

	// 1. Base image: the catalog scenario driven to 30s and captured.
	var img struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := postJSON(base+"/v1/images", map[string]any{
		"name": "smoke-base", "at_ns": int64(imageAt),
		"spec": map[string]any{"scenario": scen},
	}, &img); err != nil {
		return fmt.Errorf("create image: %w", err)
	}
	fmt.Printf("smoke: image smoke-base ready (fingerprint %s…) t+%v\n", img.Fingerprint[:16], time.Since(start).Round(time.Millisecond))

	// 2. Session from the image; stream its SSE feed concurrently.
	var st session.Status
	if err := postJSON(base+"/v1/sessions", map[string]any{"base_image": "smoke-base"}, &st); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	sseEvents := make(chan int, 1)
	go func() { sseEvents <- countSSE(base+"/v1/sessions/"+st.ID+"/events", 3*time.Second) }()

	// 3. Advance to the fork point, inject the divergent fault.
	if err := postJSON(base+"/v1/sessions/"+st.ID+"/advance", map[string]any{"to_ns": int64(forkAt)}, &st); err != nil {
		return fmt.Errorf("advance: %w", err)
	}
	var injected map[string]any
	if err := postJSON(base+"/v1/sessions/"+st.ID+"/inject", fault, &injected); err != nil {
		return fmt.Errorf("inject: %w", err)
	}

	// 4. Checkpoint, then fork a sibling carrying the same future.
	var chk session.CheckpointInfo
	if err := postJSON(base+"/v1/sessions/"+st.ID+"/checkpoint", map[string]any{}, &chk); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var sibling session.Status
	if err := postJSON(base+"/v1/sessions/"+st.ID+"/fork", map[string]any{}, &sibling); err != nil {
		return fmt.Errorf("fork: %w", err)
	}
	fmt.Printf("smoke: session %s checkpointed at %v (kernel %s…), forked %s t+%v\n",
		st.ID, chk.At, chk.KernelDigest[:16], sibling.ID, time.Since(start).Round(time.Millisecond))

	// 5. Run both to the end of the timeline and compare digests. The
	// first final advance doubles as the metrics gate: /v1/metrics is
	// scraped before, mid-advance and after, and must expose the core
	// series set richly (≥20 series) with counters monotone across the
	// three scrapes — the scrape side of the zero-perturbation contract.
	finish := func(id string) (string, error) {
		var fin session.Status
		if err := postJSON(base+"/v1/sessions/"+id+"/advance", map[string]any{"to_ns": int64(24 * time.Hour)}, &fin); err != nil {
			return "", fmt.Errorf("final advance %s: %w", id, err)
		}
		if !fin.Finished {
			return "", fmt.Errorf("session %s not finished at %v", id, fin.Offset)
		}
		return fin.TraceDigest, nil
	}
	before, err := scrapeMetrics(base + "/v1/metrics")
	if err != nil {
		return fmt.Errorf("metrics before advance: %w", err)
	}
	digests := map[string]string{}
	advDone := make(chan error, 1)
	go func() {
		d, err := finish(st.ID)
		digests[st.ID] = d
		advDone <- err
	}()
	during, err := scrapeMetrics(base + "/v1/metrics")
	if err != nil {
		return fmt.Errorf("metrics mid-advance: %w", err)
	}
	if err := <-advDone; err != nil {
		return err
	}
	after, err := scrapeMetrics(base + "/v1/metrics")
	if err != nil {
		return fmt.Errorf("metrics after advance: %w", err)
	}
	if err := checkMetrics(before, during, after); err != nil {
		return fmt.Errorf("metrics gate: %w", err)
	}
	fmt.Printf("smoke: metrics gate PASS — %d series mid-advance, counters monotone t+%v\n",
		len(during), time.Since(start).Round(time.Millisecond))
	if digests[sibling.ID], err = finish(sibling.ID); err != nil {
		return err
	}
	if digests[st.ID] != digests[sibling.ID] {
		return fmt.Errorf("fork diverged: %s got %s, %s got %s", st.ID, digests[st.ID], sibling.ID, digests[sibling.ID])
	}

	// 6. The standalone arm: the same history performed on a raw Run
	// in-process — cold build, run to the fork point, inject, finish.
	// The service must add nothing to and lose nothing from what the
	// identical API calls on a bare scenario.Run produce.
	spec, err := cliconfig.SpecRequest{Scenario: scen}.Resolve()
	if err != nil {
		return err
	}
	f, err := fault.Fault()
	if err != nil {
		return err
	}
	arm, err := scenario.New(spec)
	if err != nil {
		return fmt.Errorf("standalone arm: %w", err)
	}
	defer arm.Cloud.Close()
	if err := arm.RunTo(forkAt); err != nil {
		return fmt.Errorf("standalone arm: %w", err)
	}
	if err := arm.Inject(f); err != nil {
		return fmt.Errorf("standalone arm: %w", err)
	}
	rep, err := arm.Execute()
	if err != nil {
		return fmt.Errorf("standalone arm: %w", err)
	}
	if got := rep.TraceDigest(); got != digests[st.ID] {
		return fmt.Errorf("service trace digest %s != standalone %s", digests[st.ID], got)
	}

	if n := <-sseEvents; n < 1 {
		return fmt.Errorf("SSE feed delivered no events")
	}
	if left() < 0 {
		return fmt.Errorf("wall budget exceeded: %v over %v", time.Since(start), budget)
	}
	fmt.Printf("smoke: PASS — both forks and the standalone run share digest %s… in %v (budget %v)\n",
		digests[st.ID][:16], time.Since(start).Round(time.Millisecond), budget)
	return nil
}

// smokeCoreSeries is the series set a healthy mid-advance scrape must
// expose — service, session, scheduler, network, SDN and power layers
// all reporting. Names match by prefix so labelled series qualify.
var smokeCoreSeries = []string{
	"pisim_sessions",
	"pisim_images",
	"pisim_manager_sessions_created",
	"pisim_manager_images_created",
	"pisim_session_offset_ns",
	"pisim_session_journal_lag_ns",
	"pisim_session_subscribers",
	"pisim_session_mailbox_depth",
	"pisim_session_advances_total",
	"pisim_session_events_total",
	"pisim_session_advance_slice_seconds_count",
	"pisim_kernel_virtual_time_seconds",
	"pisim_sched_events_scheduled_total",
	"pisim_sched_events_fired_total",
	"pisim_sched_events_pending",
	"pisim_net_flushes_total",
	"pisim_net_flows_committed_total",
	"pisim_net_active_flows",
	"pisim_sdn_packet_ins_total",
	"pisim_sdn_route_cache_hits_total",
	"pisim_power_watts",
}

// smokeMonotone are the counters whose summed value must never step
// back across the before/during/after scrapes.
var smokeMonotone = []string{
	"pisim_sched_events_fired_total",
	"pisim_net_flushes_total",
	"pisim_net_flows_committed_total",
	"pisim_session_advances_total",
	"pisim_sdn_packet_ins_total",
}

// scrapeMetrics GETs a Prometheus text exposition and returns series
// (name plus rendered label set) → value.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("GET %s: content-type %q", url, ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad sample line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// seriesSum adds every series whose name starts with prefix (bare or
// labelled).
func seriesSum(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if k == prefix || strings.HasPrefix(k, prefix+"{") {
			sum += v
		}
	}
	return sum
}

// checkMetrics enforces the metrics gate over the three scrapes.
func checkMetrics(before, during, after map[string]float64) error {
	if len(during) < 20 {
		return fmt.Errorf("mid-advance scrape has %d series, want ≥20", len(during))
	}
	for _, name := range smokeCoreSeries {
		found := false
		for k := range during {
			if k == name || strings.HasPrefix(k, name+"{") {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("core series %s missing from mid-advance scrape", name)
		}
	}
	for _, name := range smokeMonotone {
		b, d, a := seriesSum(before, name), seriesSum(during, name), seriesSum(after, name)
		if b > d || d > a {
			return fmt.Errorf("counter %s not monotone: %v → %v → %v", name, b, d, a)
		}
	}
	return nil
}

// countSSE reads the session event stream for up to window and returns
// how many SSE events arrived.
func countSSE(url string, window time.Duration) int {
	client := &http.Client{Timeout: window}
	resp, err := client.Get(url)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			n++
		}
	}
	return n
}
