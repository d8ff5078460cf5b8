// Crash recovery: rebuilding a manager's whole tenant population from
// the durable store by verified replay.
//
// Recovery trusts nothing it cannot prove. Images rebuild cold from
// their replay recipes and must reproduce the persisted fingerprint
// (fleet shape key + cross-layer kernel digest) and trace digest
// byte-for-byte before they are registered. Sessions re-enact their
// write-ahead journals — create, then every advance and inject at its
// logged offset — and the rebuilt kernel's state digest, trace digest
// and offset must match the journal's last durable stamp before the
// session accepts traffic. Anything that fails verification (or whose
// replay itself errors or panics) is quarantined: the journal moves to
// the store's quarantine directory with the reason alongside, and the
// session id answers 409 with that reason instead of silently serving
// a kernel whose state cannot be vouched for.
package session

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// RecoveryReport summarises what a Recover call rebuilt and what it
// refused.
type RecoveryReport struct {
	// ImagesRebuilt lists image names registered after verification.
	ImagesRebuilt []string `json:"images_rebuilt,omitempty"`
	// ImagesShared counts rebuilds skipped because an identical recipe
	// was already rebuilt this pass.
	ImagesShared int `json:"images_shared,omitempty"`
	// ImagesQuarantined maps image names that failed verification to the
	// reason.
	ImagesQuarantined map[string]string `json:"images_quarantined,omitempty"`
	// SessionsRecovered lists session ids serving traffic again, each
	// verified against its journal's last durable stamp.
	SessionsRecovered []string `json:"sessions_recovered,omitempty"`
	// SessionsQuarantined maps session ids refused this pass to the
	// reason (prior-pass quarantines are in Manager.QuarantinedAll).
	SessionsQuarantined map[string]string `json:"sessions_quarantined,omitempty"`
}

// Recover attaches the durable store to an empty manager and rebuilds
// its state: images from persisted recipes, sessions from their
// write-ahead journals, every kernel verified against its journaled
// digest before it may serve traffic. Call once, before the HTTP
// listener opens. An empty store attaches trivially — Recover is also
// how a fresh -data-dir is wired up.
func (m *Manager) Recover(st *store.Store) (*RecoveryReport, error) {
	m.mu.Lock()
	if m.st != nil {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: store already attached")
	}
	if len(m.sessions) > 0 || len(m.images) > 0 {
		m.mu.Unlock()
		return nil, fmt.Errorf("session: recover needs an empty manager")
	}
	m.st = st
	m.mu.Unlock()
	rep := &RecoveryReport{
		ImagesQuarantined:   map[string]string{},
		SessionsQuarantined: map[string]string{},
	}
	// Quarantines from prior daemon lifetimes stay refused until an
	// operator clears them from the store.
	if prior, err := st.Quarantined(); err == nil {
		m.mu.Lock()
		for id, reason := range prior {
			m.quarantined[id] = reason
		}
		m.mu.Unlock()
	}
	if err := m.recoverImages(st, rep); err != nil {
		return rep, err
	}
	if err := m.recoverSessions(st, rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// recoverImages rebuilds every persisted image by cold replay of its
// recipe, verifying fingerprint and trace digest before registration.
// Identical recipes rebuild once and share the checkpoint.
func (m *Manager) recoverImages(st *store.Store, rep *RecoveryReport) error {
	recs, err := st.Images()
	if err != nil {
		return fmt.Errorf("session: recover images: %w", err)
	}
	built := map[string]*scenario.Checkpoint{}
	for _, rec := range recs {
		chk, shared, rerr := rebuildImage(rec, built)
		if rerr != nil {
			reason := rerr.Error()
			rep.ImagesQuarantined[rec.Name] = reason
			m.imagesQuarantined.Inc()
			if qerr := st.QuarantineImage(rec.Name, reason); qerr != nil {
				return fmt.Errorf("session: quarantine image %q: %w", rec.Name, qerr)
			}
			continue
		}
		if shared {
			rep.ImagesShared++
		}
		if _, err := m.registerImage(rec.Name, chk, rec.Recipe, false); err != nil {
			return fmt.Errorf("session: recover image %q: %w", rec.Name, err)
		}
		rep.ImagesRebuilt = append(rep.ImagesRebuilt, rec.Name)
	}
	return nil
}

// rebuildImage replays one image recipe (reusing an identical recipe's
// checkpoint from this pass) and verifies the rebuild against the
// persisted stamps. Panics during replay are turned into errors — a
// poisonous recipe quarantines, it does not take recovery down.
func rebuildImage(rec store.ImageRecord, built map[string]*scenario.Checkpoint) (chk *scenario.Checkpoint, shared bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			chk, shared, err = nil, false, fmt.Errorf("rebuild panicked: %v", p)
		}
	}()
	key := rec.Recipe.Key()
	chk, shared = built[key], false
	if chk == nil {
		r, rerr := rec.Recipe.Rebuild()
		if rerr != nil {
			return nil, false, fmt.Errorf("rebuild: %v", rerr)
		}
		chk = r.Checkpoint()
		r.Cloud.Close()
		built[key] = chk
	} else {
		shared = true
	}
	if fp := chk.Core.Fingerprint(); fp != rec.Fingerprint {
		return nil, false, fmt.Errorf("fingerprint mismatch: rebuilt %s, persisted %s", fp, rec.Fingerprint)
	}
	if chk.TraceLen != rec.TraceLen || chk.TraceDigest != rec.TraceDigest {
		return nil, false, fmt.Errorf("trace mismatch: rebuilt %d events digest %s, persisted %d, %s",
			chk.TraceLen, chk.TraceDigest, rec.TraceLen, rec.TraceDigest)
	}
	return chk, shared, nil
}

// recoverSessions re-enacts every journal: cleanly closed sessions are
// retired, verified replays come back live under their original ids in
// StateRecovered, and everything else quarantines with its reason.
func (m *Manager) recoverSessions(st *store.Store, rep *RecoveryReport) error {
	ids, err := st.JournalIDs()
	if err != nil {
		return fmt.Errorf("session: recover journals: %w", err)
	}
	sort.Strings(ids)
	maxSeq := 0
	for _, id := range ids {
		if n, perr := strconv.Atoi(strings.TrimPrefix(id, "s-")); perr == nil && n > maxSeq {
			maxSeq = n
		}
		reason, retired := m.recoverSession(st, id)
		switch {
		case reason != "":
			rep.SessionsQuarantined[id] = reason
			m.mu.Lock()
			m.quarantined[id] = reason
			m.mu.Unlock()
			m.sessionsQuarantined.Inc()
			if qerr := st.QuarantineJournal(id, reason); qerr != nil {
				return fmt.Errorf("session: quarantine journal %s: %w", id, qerr)
			}
		case retired:
			// Cleanly closed (or never acknowledged): nothing to recover.
			if rerr := st.RemoveJournal(id); rerr != nil {
				return fmt.Errorf("session: retire journal %s: %w", id, rerr)
			}
		default:
			rep.SessionsRecovered = append(rep.SessionsRecovered, id)
			m.sessionsRecovered.Inc()
		}
	}
	m.mu.Lock()
	if maxSeq > m.seq {
		m.seq = maxSeq
	}
	m.mu.Unlock()
	return nil
}

// recoverSession replays one journal. It returns a non-empty reason to
// quarantine, retired=true to retire the journal with nothing to
// rebuild, and ("", false) after the session is live again. Panics
// during replay quarantine the journal, they do not crash recovery.
func (m *Manager) recoverSession(st *store.Store, id string) (reason string, retired bool) {
	defer func() {
		if p := recover(); p != nil {
			reason, retired = fmt.Sprintf("recovery panicked: %v", p), false
		}
	}()
	recs, err := st.ReadJournal(id)
	if err != nil {
		return fmt.Sprintf("journal unreadable: %v", err), false
	}
	if len(recs) == 0 {
		// Crash between journal creation and the create record: the id
		// was never acknowledged to any client.
		return "", true
	}
	if recs[len(recs)-1].Op == "close" {
		return "", true
	}
	if recs[0].Op != "create" {
		return fmt.Sprintf("journal starts with %q, want create", recs[0].Op), false
	}
	r, cfg, err := m.rebuildCreate(recs[0])
	if err != nil {
		return err.Error(), false
	}
	last := recs[0]
	// One span per recovered session covers the whole verified replay;
	// it closes at the journal's last durable offset whichever way the
	// recovery ends.
	span := m.Tracer().Begin("recover-session", "recovery", 0)
	defer func() { span.End(sim.Time(last.At)) }()
	for _, rec := range recs[1:] {
		if err := replayRecord(r, rec); err != nil {
			r.Cloud.Close()
			return fmt.Sprintf("replay %s at %v: %v", rec.Op, time.Duration(rec.At), err), false
		}
		if rec.KernelDigest != "" {
			last = rec
		}
	}
	// The whole durable history is re-enacted; now prove the rebuilt
	// kernel IS the journaled one before it may serve traffic.
	if err := verifyStamp(r, last); err != nil {
		r.Cloud.Close()
		return err.Error(), false
	}
	jr, err := st.OpenJournal(id)
	if err != nil {
		r.Cloud.Close()
		return fmt.Sprintf("reopen journal: %v", err), false
	}
	cfg.id = id
	cfg.state = StateRecovered
	cfg.jr = jr
	cfg.durableOffset = time.Duration(last.At)
	cfg.lastTraceLen = last.TraceLen
	cfg.lastTraceDigest = last.TraceDigest
	if _, err := m.adopt(r, cfg); err != nil {
		_ = jr.Close()
		r.Cloud.Close()
		return fmt.Sprintf("adopt: %v", err), false
	}
	return "", false
}

// rebuildCreate turns a journal's create record back into a paused run:
// a fork of the (already rebuilt and verified) base image, or a cold
// replay of the embedded recipe (fresh specs and fork children).
func (m *Manager) rebuildCreate(rec store.Record) (*scenario.Run, adoptConfig, error) {
	switch {
	case rec.BaseImage != "":
		img := m.Image(rec.BaseImage)
		if img == nil {
			return nil, adoptConfig{}, fmt.Errorf("base image %q not recovered", rec.BaseImage)
		}
		if img.rec.KernelDigest != rec.KernelDigest {
			return nil, adoptConfig{}, fmt.Errorf("base image %q digest %s does not match the journaled %s",
				rec.BaseImage, img.rec.KernelDigest, rec.KernelDigest)
		}
		r, err := img.chk.Fork()
		if err != nil {
			return nil, adoptConfig{}, fmt.Errorf("fork image %q: %v", rec.BaseImage, err)
		}
		return r, adoptConfig{baseImage: rec.BaseImage, rootReq: img.rec.Recipe.Spec}, nil
	case rec.Recipe != nil:
		r, err := rec.Recipe.Rebuild()
		if err != nil {
			return nil, adoptConfig{}, fmt.Errorf("rebuild recipe: %v", err)
		}
		return r, adoptConfig{rootReq: rec.Recipe.Spec}, nil
	default:
		return nil, adoptConfig{}, fmt.Errorf("create record names neither image nor recipe")
	}
}

// replayRecord re-enacts one journaled command on the rebuilt run.
// Checkpoint and fork records change no session state (images persist
// separately; children journal their own history) — only their stamps
// matter, and verifyStamp checks the final one.
func replayRecord(r *scenario.Run, rec store.Record) error {
	switch rec.Op {
	case "advance":
		if at := time.Duration(rec.At); r.Offset() < at {
			return r.RunTo(at)
		}
		return nil
	case "inject":
		if rec.Fault == nil {
			return fmt.Errorf("inject record carries no fault")
		}
		if at := time.Duration(rec.At); r.Offset() < at {
			if err := r.RunTo(at); err != nil {
				return err
			}
		}
		f, err := rec.Fault.Fault()
		if err != nil {
			return err
		}
		return r.Inject(f)
	case "checkpoint", "fork":
		return nil
	default:
		return fmt.Errorf("unknown journal op %q", rec.Op)
	}
}

// verifyStamp proves the rebuilt kernel byte-identical to the journal's
// last durable stamp: timeline offset, trace length and digest, and the
// cross-layer kernel state digest must all match.
func verifyStamp(r *scenario.Run, last store.Record) error {
	if at := time.Duration(last.At); r.Offset() != at {
		return fmt.Errorf("offset mismatch: replayed to %v, journal stamped %v", r.Offset(), at)
	}
	trace := r.Trace()
	if got := scenario.DigestTrace(trace); len(trace) != last.TraceLen || got != last.TraceDigest {
		return fmt.Errorf("trace mismatch: replayed %d events digest %s, journal stamped %d, %s",
			len(trace), got, last.TraceLen, last.TraceDigest)
	}
	if st := r.Cloud.KernelState(); st.Digest != last.KernelDigest {
		return fmt.Errorf("kernel digest mismatch: replayed %s, journal stamped %s", st.Digest, last.KernelDigest)
	}
	return nil
}
