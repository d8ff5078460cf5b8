// Package session is the multi-tenant heart of the simulator's service
// mode: one long-running process owns named base images — a catalog
// scenario resolved once, driven to an offset and captured as a
// verified full-kernel checkpoint — and any number of live sessions,
// each an independent scenario.Run forked from an image (or built
// fresh from a spec) and advanced through virtual time on demand.
//
// The concurrency discipline is one goroutine per session kernel with
// a serialized command mailbox: every operation that touches a run —
// advance, inject, checkpoint, trace, status — is a command executed
// by that session's own goroutine, one at a time, at a paused instant
// of the timeline. Sessions therefore keep the whole repository's
// determinism contract individually: the same image, the same injected
// faults and the same advances reproduce the same trace digest bit for
// bit, no matter how many sibling sessions run concurrently (the
// service gate proves exactly this under the race detector).
//
// Base images are registered by caller-chosen name, and two images
// share one checkpoint instead of holding two when both the captured
// machine and its future match: the same fingerprint (fleet shape key +
// cross-layer kernel state digest, see scenario.Checkpoint.Fingerprint)
// and the same replay recipe (store.Recipe.Key).
//
// With a store attached (Manager.Recover), the manager is crash-safe:
// images persist as replay recipes, sessions journal every
// state-changing command write-ahead, and a restarted manager rebuilds
// the whole tenant population by re-enacting the durable history —
// accepting each recovered kernel only after its state digest matches
// the journaled fingerprint bit for bit.
package session

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/store"
)

// Event is one entry of a session's telemetry feed: trace events as
// they are recorded, telemetry samples at every advance slice
// (aggregate and per-rack power, per-rack bits carried), and lifecycle
// markers (created, advanced, checkpointed, forked, failed, draining,
// finished).
type Event struct {
	Type   string `json:"type"`
	Offset int64  `json:"offset_ns"`
	// Kind/Detail carry trace and lifecycle payloads.
	Kind   string `json:"kind,omitempty"`
	Detail string `json:"detail,omitempty"`
	// PowerW and the per-rack maps carry telemetry payloads, keyed by
	// rack index.
	PowerW     float64            `json:"power_w,omitempty"`
	RackPowerW map[string]float64 `json:"rack_power_w,omitempty"`
	RackBits   map[string]float64 `json:"rack_bits,omitempty"`
}

// Status is a session's externally visible state, captured at a paused
// instant through the mailbox (or, for failed sessions, from the
// session's own bookkeeping — the kernel is never touched again).
type Status struct {
	ID          string             `json:"id"`
	Scenario    string             `json:"scenario"`
	BaseImage   string             `json:"base_image,omitempty"`
	State       string             `json:"state"`
	Failure     string             `json:"failure,omitempty"`
	Offset      time.Duration      `json:"offset_ns"`
	Duration    time.Duration      `json:"duration_ns"`
	Finished    bool               `json:"finished"`
	TraceLen    int                `json:"trace_len"`
	TraceDigest string             `json:"trace_digest"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// CheckpointInfo is the wire summary of a captured checkpoint.
type CheckpointInfo struct {
	At           time.Duration `json:"at_ns"`
	Fingerprint  string        `json:"fingerprint"`
	KernelDigest string        `json:"kernel_digest"`
	TraceLen     int           `json:"trace_len"`
	TraceDigest  string        `json:"trace_digest"`
	Image        string        `json:"image,omitempty"`
}

// BaseImage is a named, shareable restore point: the resolved spec
// request (the recipe), the capture offset, and the verified
// checkpoint sessions fork from. Images are immutable once registered.
type BaseImage struct {
	Name        string
	Scenario    string
	At          time.Duration
	Fingerprint string
	// Forks counts sessions started from this image.
	forks int
	chk   *scenario.Checkpoint
	// rec is the image's durable form: the replay recipe plus the digest
	// stamps a rebuild must reproduce. Always populated (persisting it is
	// what needs a store; describing the image doesn't).
	rec store.ImageRecord
}

// Manager owns the image registry and the live sessions.
type Manager struct {
	mu     sync.Mutex
	images map[string]*BaseImage
	// shared files the first image registered under each shareKey, the
	// one later images with the same key share a checkpoint with.
	shared   map[string]*BaseImage
	sessions map[string]*Session
	seq      int
	draining bool
	// quarantined maps session ids whose recovery failed verification to
	// the recorded reason; their journals sit in the store's quarantine
	// directory and their ids answer 409 until an operator intervenes.
	quarantined map[string]string
	// st is the durable store, nil for a memory-only manager (attach via
	// Recover before serving traffic).
	st *store.Store
	// drainCh is closed (once) by Drain; session advance loops yield at
	// the next slice boundary when they observe it.
	drainCh chan struct{}
	// obs is the observability registry behind GET /v1/metrics: the
	// service counters below (as pisim_manager_<name>), every live
	// session's kernel and service series (labelled by session id) and
	// the per-session latency histograms. See obs.go.
	obs *obs.Registry
	// Service-level counters, registered in obs by initObs: images
	// built, shared (see shareKey) and quarantined, sessions
	// created/closed/failed/quarantined/recovered, forks, journal
	// records. counters lists them by bare name for Metrics.
	imagesCreated, imagesShared, imageForks, imagesQuarantined *obs.Counter
	sessionsCreated, sessionsClosed, sessionsFailed            *obs.Counter
	sessionsQuarantined, sessionsRecovered, sessionForks       *obs.Counter
	journalRecords                                             *obs.Counter
	counters                                                   []namedCounter
	// tracer, when non-nil, attaches to every subsequently adopted
	// session's cloud and receives recovery-replay spans.
	tracer *obs.Tracer
}

// NewManager returns an empty, memory-only session manager.
func NewManager() *Manager {
	m := &Manager{
		images:      map[string]*BaseImage{},
		shared:      map[string]*BaseImage{},
		sessions:    map[string]*Session{},
		quarantined: map[string]string{},
		drainCh:     make(chan struct{}),
		obs:         obs.NewRegistry(),
	}
	m.initObs()
	return m
}

// Metrics snapshots the service-level counters by bare name
// (images_created, sessions_failed, ...).
func (m *Manager) Metrics() map[string]float64 {
	out := make(map[string]float64, len(m.counters))
	for _, c := range m.counters {
		out[c.name] = c.Value()
	}
	return out
}

// Store returns the attached durable store, or nil.
func (m *Manager) Store() *store.Store {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st
}

// Quarantined returns the recorded failure reason for a quarantined
// session id ("" if the id is not quarantined).
func (m *Manager) Quarantined(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantined[id]
}

// QuarantinedAll snapshots the quarantine map (id → reason).
func (m *Manager) QuarantinedAll() map[string]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]string, len(m.quarantined))
	for id, reason := range m.quarantined {
		out[id] = reason
	}
	return out
}

func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain begins graceful shutdown: no new images or sessions, every
// in-flight advance yields at its next slice boundary with its
// progress journaled, and Drain returns only once every session has
// answered a post-yield barrier command — so "Drain returned" implies
// "every session's durable history is current". Sessions are NOT
// closed: their journals must survive for the next daemon lifetime to
// recover.
func (m *Manager) Drain() {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	if !already {
		close(m.drainCh)
	}
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	for _, s := range sessions {
		// The barrier no-op queues behind any yielding advance (the drain
		// check precedes queued-command service, so the yield's journal
		// append is durable before this is answered). Failed or closed
		// sessions answer with their error; either way they are settled.
		_, _ = s.do(func(r *scenario.Run) (any, error) { return nil, nil })
	}
}

// CreateImage resolves the spec request, drives a fresh run to the
// offset, captures a checkpoint and registers it under name. If an
// existing image captured the same machine from the same recipe, the
// new name shares its checkpoint instead of keeping a second copy. With
// a store attached the image also persists as a replay recipe the next
// daemon lifetime rebuilds.
func (m *Manager) CreateImage(name string, req cliconfig.SpecRequest, at time.Duration) (*BaseImage, error) {
	if name == "" {
		return nil, fmt.Errorf("session: image needs a name")
	}
	if m.isDraining() {
		return nil, fmt.Errorf("session: image %q: %w", name, ErrDraining)
	}
	m.mu.Lock()
	if _, dup := m.images[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: image %q already exists", name)
	}
	m.mu.Unlock()
	spec, err := req.Resolve()
	if err != nil {
		return nil, fmt.Errorf("session: image %q: %w", name, err)
	}
	r, chk, err := scenario.Branch(spec, at)
	if err != nil {
		return nil, fmt.Errorf("session: image %q: %w", name, err)
	}
	// The builder run only existed to reach the offset; the checkpoint
	// carries the construction snapshot and replay recipe on its own.
	r.Cloud.Close()
	return m.registerImage(name, chk, store.Recipe{Spec: req, At: int64(at)}, true)
}

// shareKey is the key images share a checkpoint under: the fingerprint
// says two captures are the same machine at their offset, and the
// recipe's key says their futures are the same too (a fingerprint holds
// nothing of the timeline after the offset, such as the run's
// duration).
func shareKey(fingerprint string, recipe store.Recipe) string {
	return fingerprint + " " + recipe.Key()
}

// registerImage files a captured checkpoint under name, sharing the
// stored checkpoint with any image of the same share key. The recipe
// is the image's durable form; persist writes it through the store
// (when one is attached) with rollback on failure, recovery registers
// already-persisted images with persist=false.
func (m *Manager) registerImage(name string, chk *scenario.Checkpoint, recipe store.Recipe, persist bool) (*BaseImage, error) {
	fp := chk.Fingerprint()
	rec := store.ImageRecord{
		Name:         name,
		Recipe:       recipe,
		Fingerprint:  fp,
		KernelDigest: chk.Kernel.Digest,
		TraceLen:     chk.TraceLen,
		TraceDigest:  chk.TraceDigest,
	}
	// A recipe that dropped an injection it could not encode no longer
	// says what the image replays, so such an image shares nothing.
	key := ""
	if len(recipe.Injections) == len(chk.Injections) {
		key = shareKey(fp, recipe)
	}
	m.mu.Lock()
	if _, dup := m.images[name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: image %q already exists", name)
	}
	if shared, ok := m.shared[key]; ok {
		chk = shared.chk
		m.imagesShared.Inc()
	}
	img := &BaseImage{
		Name:        name,
		Scenario:    chk.Spec.Name,
		At:          chk.At,
		Fingerprint: fp,
		chk:         chk,
		rec:         rec,
	}
	m.images[name] = img
	if _, ok := m.shared[key]; !ok && key != "" {
		m.shared[key] = img
	}
	st := m.st
	m.mu.Unlock()
	if persist && st != nil {
		if err := st.SaveImage(rec); err != nil {
			m.mu.Lock()
			delete(m.images, name)
			if m.shared[key] == img {
				delete(m.shared, key)
			}
			m.mu.Unlock()
			return nil, fmt.Errorf("session: image %q: persist: %w", name, err)
		}
	}
	m.imagesCreated.Inc()
	return img, nil
}

// Image returns the named base image, or nil.
func (m *Manager) Image(name string) *BaseImage {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.images[name]
}

// Images lists the registered images sorted by name.
func (m *Manager) Images() []*BaseImage {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*BaseImage, 0, len(m.images))
	for _, img := range m.images {
		out = append(out, img)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CreateSession builds a live session: from the named base image when
// baseImage is non-empty (warm fork, shared prefix verified
// byte-identical), otherwise fresh from the spec request at offset
// zero.
func (m *Manager) CreateSession(baseImage string, req *cliconfig.SpecRequest) (*Session, error) {
	if m.isDraining() {
		return nil, fmt.Errorf("session: %w", ErrDraining)
	}
	var r *scenario.Run
	var err error
	var cfg adoptConfig
	switch {
	case baseImage != "":
		img := m.Image(baseImage)
		if img == nil {
			return nil, fmt.Errorf("session: unknown base image %q", baseImage)
		}
		r, err = img.chk.Fork()
		if err != nil {
			return nil, fmt.Errorf("session: fork of image %q: %w", baseImage, err)
		}
		m.mu.Lock()
		img.forks++
		m.mu.Unlock()
		m.imageForks.Inc()
		// The create record names the image and carries its stamp, which
		// the fork just reproduced; recovery re-forks the image and checks
		// it against this stamp.
		create := store.Record{Op: "create", BaseImage: baseImage}.Stamped(img.chk.Stamp)
		cfg = adoptConfig{baseImage: baseImage, rootReq: img.rec.Recipe.Spec, create: &create}
	case req != nil:
		spec, rerr := req.Resolve()
		if rerr != nil {
			return nil, fmt.Errorf("session: %w", rerr)
		}
		r, err = scenario.New(spec)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		create := store.Record{Op: "create", Recipe: &store.Recipe{Spec: *req}}.Stamped(r.Stamp())
		cfg = adoptConfig{rootReq: *req, create: &create}
	default:
		return nil, fmt.Errorf("session: need a base image or a spec")
	}
	s, err := m.adopt(r, cfg)
	if err != nil {
		r.Cloud.Close()
		return nil, err
	}
	return s, nil
}

// adoptConfig parameterises adopt: fresh sessions pass a create record
// (journaled as the first write-ahead entry when a store is attached);
// recovery passes the already-open journal, the recovered id and the
// stamp of the journal's last record.
type adoptConfig struct {
	id        string // "" = allocate the next s-%04d
	baseImage string
	rootReq   cliconfig.SpecRequest
	state     string // "" = StateRunning
	jr        *store.Journal
	create    *store.Record
	durable   scenario.Stamp
}

// adopt wraps a freshly built (or forked, or recovered) run in a
// session and starts its kernel goroutine. With a store attached, the
// session's journal is created and its create record fsynced before
// the session exists — a session the manager acknowledges is always
// recoverable.
func (m *Manager) adopt(r *scenario.Run, cfg adoptConfig) (*Session, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: %w", ErrDraining)
	}
	id := cfg.id
	if id == "" {
		m.seq++
		id = fmt.Sprintf("s-%04d", m.seq)
	}
	st := m.st
	m.mu.Unlock()
	jr := cfg.jr
	durable := cfg.durable
	if jr == nil && st != nil && cfg.create != nil {
		var err error
		jr, err = st.CreateJournal(id)
		if err == nil {
			err = jr.Append(*cfg.create)
		}
		if err != nil {
			if jr != nil {
				_ = jr.Close()
				_ = st.RemoveJournal(id)
			}
			return nil, fmt.Errorf("session %s: journal: %w", id, err)
		}
		m.journalRecords.Inc()
		durable = cfg.create.Stamp()
	}
	state := cfg.state
	if state == "" {
		state = StateRunning
	}
	s := &Session{
		ID:          id,
		Scenario:    r.Spec.Name,
		BaseImage:   cfg.baseImage,
		mgr:         m,
		rootReq:     cfg.rootReq,
		jr:          jr,
		cmds:        make(chan sessCmd, 16),
		done:        make(chan struct{}),
		drainCh:     m.drainCh,
		subs:        map[chan Event]struct{}{},
		offset:      r.Offset(),
		duration:    r.Spec.Duration,
		state:       state,
		durable:     durable,
		sliceHist:   m.obs.Histogram("pisim_session_advance_slice_seconds", obs.DefBuckets, obs.L("session", id)),
		journalHist: m.obs.Histogram("pisim_journal_append_seconds", obs.DefBuckets, obs.L("session", id)),
	}
	if tr := m.Tracer(); tr != nil {
		r.SetTracer(tr)
	}
	// Seed the stats cache at this paused instant so scrapes see kernel
	// series before the first advance.
	s.sampleKernel(r)
	m.mu.Lock()
	m.sessions[id] = s
	m.mu.Unlock()
	m.sessionsCreated.Inc()
	// Every recorded trace event fans out to the session's SSE
	// subscribers as it happens.
	r.OnEvent = func(ev scenario.TraceEvent) {
		s.emit(Event{Type: "trace", Offset: int64(ev.At), Kind: ev.Kind, Detail: ev.Detail})
	}
	go s.loop(r)
	s.emit(Event{Type: "lifecycle", Offset: int64(s.Offset()), Kind: "created",
		Detail: fmt.Sprintf("scenario %s from image %q at %v", s.Scenario, cfg.baseImage, s.Offset())})
	return s, nil
}

// Session returns the live session by id, or nil.
func (m *Manager) Session(id string) *Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessions[id]
}

// Sessions lists the live sessions sorted by id.
func (m *Manager) Sessions() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close shuts every session down cleanly (writing terminal journal
// records and retiring their journals — nothing to recover). For
// graceful daemon shutdown that must leave the journals recoverable,
// use Drain instead.
func (m *Manager) Close() {
	for _, s := range m.Sessions() {
		s.Close()
	}
}

// remove unlinks a closed session.
func (m *Manager) remove(id string) {
	m.mu.Lock()
	delete(m.sessions, id)
	m.mu.Unlock()
	m.sessionsClosed.Inc()
}
