// Service-level observability: the manager-owned obs.Registry that
// GET /v1/metrics exposes in Prometheus text format.
//
// Three sources feed it:
//
//   - the manager's service counters, registered as
//     pisim_manager_<name> (images built/shared, sessions
//     created/closed/recovered/failed, forks, journal records,
//     quarantines);
//   - per-session latency histograms (advance slice wall time, journal
//     append+fsync wall time), created in adopt as real instruments so
//     the kernel goroutine's hot path is one atomic observe;
//   - a read-time collector that emits, for every live session, the
//     session-service gauges (offset, durable offset, journal lag,
//     mailbox depth, SSE subscribers, event/drop counts) and the full
//     kernel counter set — scheduler, network solver, SDN route
//     machinery, power — from the session's cached KernelStats sample.
//
// The cache is the concurrency story: kernel stats are sampled by the
// session's own goroutine at paused instants (adopt, then every advance
// slice boundary), so an HTTP scrape arriving mid-advance reads a
// consistent, at-most-one-slice-old snapshot under s.mu and never
// touches the advancing kernel. Scrapes therefore cannot perturb the
// simulation — the zero-perturbation gate pins the stronger claim that
// observed runs digest bit-identically to unobserved ones.
package session

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// namedCounter is one service counter with its bare name.
type namedCounter struct {
	name string
	*obs.Counter
}

// initObs wires the manager's observability registry: the service
// counters, help strings, and the per-session collector.
func (m *Manager) initObs() {
	for _, c := range []struct {
		name string
		dst  **obs.Counter
	}{
		{"images_created", &m.imagesCreated},
		{"images_shared", &m.imagesShared},
		{"image_forks", &m.imageForks},
		{"images_quarantined", &m.imagesQuarantined},
		{"journal_records", &m.journalRecords},
		{"sessions_created", &m.sessionsCreated},
		{"sessions_closed", &m.sessionsClosed},
		{"sessions_failed", &m.sessionsFailed},
		{"sessions_quarantined", &m.sessionsQuarantined},
		{"sessions_recovered", &m.sessionsRecovered},
		{"session_forks", &m.sessionForks},
	} {
		*c.dst = m.obs.Counter("pisim_manager_" + c.name)
		m.counters = append(m.counters, namedCounter{c.name, *c.dst})
	}
	m.obs.SetHelp("pisim_sessions", "Live sessions.")
	m.obs.SetHelp("pisim_images", "Registered base images.")
	m.obs.SetHelp("pisim_sessions_quarantined", "Session ids refused after failed recovery verification.")
	m.obs.SetHelp("pisim_session_advance_slice_seconds", "Wall time per advance slice (one RunTo of SampleEvery virtual time).")
	m.obs.SetHelp("pisim_journal_append_seconds", "Wall time per write-ahead journal append, fsync included.")
	m.obs.SetHelp("pisim_session_journal_lag_ns", "Un-journaled progress: offset minus last durable offset.")
	m.obs.SetHelp("pisim_session_mailbox_depth", "Commands queued in the session mailbox.")
	m.obs.SetHelp("pisim_kernel_virtual_time_seconds", "The session kernel's virtual clock.")
	m.obs.SetHelp("pisim_sched_tombstones_total", "Cancelled events discarded by the scheduler on pop/peek.")
	m.obs.SetHelp("pisim_net_flushes_total", "Network kernel dirty-domain flush passes.")
	m.obs.SetHelp("pisim_net_domains_solved_total", "Dirty congestion domains claimed and re-solved.")
	m.obs.SetHelp("pisim_sdn_route_synth_hits_total", "Route cache misses answered by structured synthesis; the tier label (same-edge/adjacent/one-mid/cross-pod) splits the unlabelled monotone total by which case answered.")
	m.obs.SetHelp("pisim_sdn_dijkstra_fallbacks_total", "Route cache misses the structured synthesis could not serve.")
	m.obs.SetHelp("pisim_power_watts", "Instantaneous whole-cloud power draw.")
	m.obs.RegisterCollector(m.collect)
}

// Obs returns the manager's observability registry — the /v1/metrics
// source, also what piscaled scrapes into tests.
func (m *Manager) Obs() *obs.Registry { return m.obs }

// SetTracer attaches a span tracer: every session adopted from now on
// gets it threaded through its cloud (advance slices, netsim flushes,
// kernel-state captures), and recovery replays emit one span each.
func (m *Manager) SetTracer(t *obs.Tracer) {
	m.mu.Lock()
	m.tracer = t
	m.mu.Unlock()
}

// Tracer returns the attached tracer (nil when tracing is off).
func (m *Manager) Tracer() *obs.Tracer {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.tracer
}

// collect is the read-time fan-in behind every scrape: service totals,
// then one labelled series set per live session.
func (m *Manager) collect(e *obs.Emitter) {
	sessions := m.Sessions()
	e.Gauge("pisim_sessions", float64(len(sessions)))
	e.Gauge("pisim_images", float64(len(m.Images())))
	e.Gauge("pisim_sessions_quarantined", float64(len(m.QuarantinedAll())))
	for _, s := range sessions {
		s.collect(e)
	}
}

// sampleKernel caches a kernel stats snapshot. Called only by the
// goroutine owning r at a paused instant (adopt before the kernel
// goroutine starts; the advance loop at slice boundaries), so the
// KernelStats read is race-free; the cache itself is s.mu-guarded for
// the scrape side.
func (s *Session) sampleKernel(r *scenario.Run) {
	ks := r.Cloud.KernelStats()
	s.mu.Lock()
	s.kstats = ks
	s.kstatsValid = true
	s.mu.Unlock()
}

// collect emits the session's series, every one labelled session=<id>:
// service gauges and counters from the session's own bookkeeping, then
// the kernel counter set from the cached stats sample.
func (s *Session) collect(e *obs.Emitter) {
	lbl := obs.L("session", s.ID)
	s.mu.Lock()
	ks, valid := s.kstats, s.kstatsValid
	off, durable := s.offset, s.durable.At
	subs := len(s.subs)
	s.mu.Unlock()
	lag := off - durable
	if lag < 0 {
		lag = 0
	}
	// Offsets are ns counts; float64 is exact below ~104 virtual days.
	e.Gauge("pisim_session_offset_ns", float64(off), lbl)
	e.Gauge("pisim_session_durable_offset_ns", float64(durable), lbl)
	e.Gauge("pisim_session_journal_lag_ns", float64(lag), lbl)
	e.Gauge("pisim_session_subscribers", float64(subs), lbl)
	e.Gauge("pisim_session_mailbox_depth", float64(len(s.cmds)), lbl)
	for _, c := range s.serviceCounters() {
		e.Counter("pisim_session_"+c.name+"_total", c.Value(), lbl)
	}
	if !valid {
		return
	}
	core.CollectKernelStats(e, ks, lbl)
}

// healthz renders the /v1/healthz body. The numeric per-session fields
// are read back out of the observability registry — the same gathered
// samples a /v1/metrics scrape serializes — so health and metrics can
// never disagree; only the strings (id, state, failure) come from the
// session's own bookkeeping. The JSON shape is pinned by
// TestHealthzShape.
func (m *Manager) healthz() map[string]any {
	bySess := map[string]map[string]float64{}
	for _, smp := range m.obs.Gather() {
		var id string
		for _, l := range smp.Labels {
			if l.Key == "session" {
				id = l.Value
			}
		}
		if id == "" || smp.Kind == obs.KindHistogram {
			continue
		}
		mm := bySess[id]
		if mm == nil {
			mm = map[string]float64{}
			bySess[id] = mm
		}
		mm[smp.Name] = smp.Value
	}
	sessions := m.Sessions()
	detail := make([]map[string]any, 0, len(sessions))
	var dropped float64
	for _, s := range sessions {
		mm := bySess[s.ID]
		dropped += mm["pisim_session_events_dropped_total"]
		st := s.StatusLocal()
		detail = append(detail, map[string]any{
			"id":                s.ID,
			"state":             st.State,
			"failure":           st.Failure,
			"offset_ns":         int64(mm["pisim_session_offset_ns"]),
			"durable_offset_ns": int64(mm["pisim_session_durable_offset_ns"]),
			"journal_lag_ns":    int64(mm["pisim_session_journal_lag_ns"]),
			"subscribers":       int(mm["pisim_session_subscribers"]),
			"events_dropped":    mm["pisim_session_events_dropped_total"],
		})
	}
	body := map[string]any{
		"ok":                   true,
		"sessions":             len(sessions),
		"images":               len(m.Images()),
		"events_dropped":       dropped,
		"session_detail":       detail,
		"sessions_quarantined": m.QuarantinedAll(),
		"metrics":              m.Metrics(),
	}
	if st := m.Store(); st != nil {
		body["data_dir"] = st.Dir()
	}
	return body
}
