// Crash recovery: rebuilding a manager's whole tenant population from
// the durable store by verified replay.
//
// Recovery trusts nothing it cannot prove, and proves everything with
// the one scenario.Stamp.Verify every restore passes. Images rebuild
// cold from their replay recipes and must reproduce the persisted stamp
// (offset, kernel digest, trace length and digest) and the fingerprint's
// fleet shape key before they are registered. Sessions re-enact their
// write-ahead journals — the create record, then every journaled
// injection at its logged offset, up to the last stamped offset — and
// the rebuilt run must reproduce that record's stamp before the
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
	// ImagesShared counts rebuilds skipped because an image of the same
	// fingerprint and recipe was already rebuilt this pass.
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
// recipe, verifying its stamp and fingerprint before registration.
// Images of one share key rebuild once and share the checkpoint.
func (m *Manager) recoverImages(st *store.Store, rep *RecoveryReport) error {
	recs, err := st.Images()
	if err != nil {
		return fmt.Errorf("session: recover images: %w", err)
	}
	for _, rec := range recs {
		chk, shared, rerr := m.rebuildImage(rec)
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

// rebuildImage replays one image recipe (reusing the checkpoint of an
// image already registered under the same share key) and verifies the
// rebuild against the persisted stamp and fingerprint. Panics during
// replay are turned into errors — a poisonous recipe quarantines, it
// does not take recovery down.
func (m *Manager) rebuildImage(rec store.ImageRecord) (chk *scenario.Checkpoint, shared bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			chk, shared, err = nil, false, fmt.Errorf("rebuild panicked: %v", p)
		}
	}()
	m.mu.Lock()
	img := m.shared[shareKey(rec.Fingerprint, rec.Recipe)]
	m.mu.Unlock()
	if shared = img != nil; shared {
		chk = img.chk
	} else {
		r, rerr := rec.Recipe.Rebuild()
		if rerr != nil {
			return nil, false, fmt.Errorf("rebuild: %v", rerr)
		}
		chk = r.Checkpoint()
		r.Cloud.Close()
	}
	if err := rec.Stamp().Verify(chk.Stamp); err != nil {
		return nil, false, err
	}
	if fp := chk.Fingerprint(); fp != rec.Fingerprint {
		return nil, false, fmt.Errorf("fingerprint mismatch: rebuilt %s, persisted %s", fp, rec.Fingerprint)
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
	injections, last, err := journalHistory(recs)
	if err != nil {
		return err.Error(), false
	}
	r, cfg, err := m.rebuildCreate(recs[0])
	if err != nil {
		return err.Error(), false
	}
	// One span per recovered session covers the whole verified replay;
	// it closes at the journal's last durable offset whichever way the
	// recovery ends.
	span := m.Tracer().Begin("recover-session", "recovery", 0)
	defer func() { span.End(sim.Time(last.At)) }()
	if err := r.ReplayHistory(injections, time.Duration(last.At)); err != nil {
		r.Cloud.Close()
		return fmt.Sprintf("replay to %v: %v", time.Duration(last.At), err), false
	}
	// The whole durable history is re-enacted; now prove the rebuilt
	// kernel IS the journaled one before it may serve traffic.
	if err := last.Stamp().Verify(r.Stamp()); err != nil {
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
	cfg.durable = last.Stamp()
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
		if err := rec.Stamp().Verify(img.chk.Stamp); err != nil {
			return nil, adoptConfig{}, fmt.Errorf("base image %q does not match the journaled create: %v", rec.BaseImage, err)
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

// journalHistory reads a journal (create record first) for replay: its
// inject records as the injection history Run.ReplayHistory re-enacts,
// and its last stamped record, the state the replay must reproduce.
// Advance, checkpoint and fork records change no session state (images
// persist separately; children journal their own history): only their
// stamps matter. A fork record stamped at an earlier offset than the
// stamped record before it lost a race with the session's next command
// (see Session.Fork): its stamp is not the latest state and is skipped.
func journalHistory(recs []store.Record) (injections []scenario.Injection, last store.Record, err error) {
	last = recs[0]
	for _, rec := range recs[1:] {
		switch rec.Op {
		case "inject":
			if rec.Fault == nil {
				return nil, last, fmt.Errorf("inject record at %v carries no fault", time.Duration(rec.At))
			}
			f, err := rec.Fault.Fault()
			if err != nil {
				return nil, last, fmt.Errorf("inject record at %v: %v", time.Duration(rec.At), err)
			}
			injections = append(injections, scenario.Injection{At: time.Duration(rec.At), Fault: f})
		case "fork":
			if rec.At < last.At {
				continue
			}
		case "advance", "checkpoint":
		default:
			return nil, last, fmt.Errorf("unknown journal op %q", rec.Op)
		}
		if rec.KernelDigest != "" {
			last = rec
		}
	}
	return injections, last, nil
}
