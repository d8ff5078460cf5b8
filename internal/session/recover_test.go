package session

// Crash-recovery coverage at the manager level: a manager is abandoned
// mid-flight (no clean close — the in-process stand-in for SIGKILL)
// and a fresh manager over the same data directory must re-enact every
// journal, verify every rebuilt kernel, and carry the recovered
// sessions to digests bit-identical to uninterrupted runs; a data
// directory committed under testdata/ pins the on-disk formats. Plus
// the refusal paths: doctored journals and image records quarantine,
// cleanly closed sessions stay closed, kernel panics isolate to their
// session, and graceful drain leaves every journal current.

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// storedManager builds a manager recovered over dir (empty dir = fresh
// attach).
func storedManager(t *testing.T, dir string) (*Manager, *RecoveryReport) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager()
	rep, err := mgr.Recover(st)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return mgr, rep
}

func TestRecoverAfterAbandonedManager(t *testing.T) {
	dir := t.TempDir()
	fault := scenario.RackFail{Rack: 2, At: 30 * time.Second, Outage: 5 * time.Second}

	// First lifetime: an image, a session off it with an injected fault,
	// a fresh-spec session, and a fork child — then the manager is
	// abandoned with everything still live.
	mgrA, _ := storedManager(t, dir)
	smallImage(t, mgrA, "base")
	sA, err := mgrA.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sA.Advance(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sA.Inject(fault); err != nil {
		t.Fatal(err)
	}
	req := smallSpec()
	sB, err := mgrA.CreateSession("", &req)
	if err != nil {
		t.Fatal(err)
	}
	if err := sB.Advance(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	child, err := sA.Fork()
	if err != nil {
		t.Fatal(err)
	}

	// Second lifetime over the same directory.
	mgrB, rep := storedManager(t, dir)
	defer mgrB.Close()
	if len(rep.ImagesRebuilt) != 1 || rep.ImagesRebuilt[0] != "base" {
		t.Fatalf("images rebuilt: %v", rep.ImagesRebuilt)
	}
	if len(rep.SessionsRecovered) != 3 || len(rep.SessionsQuarantined) != 0 {
		t.Fatalf("recovered %v, quarantined %v", rep.SessionsRecovered, rep.SessionsQuarantined)
	}
	wantOffsets := map[string]time.Duration{
		sA.ID: 20 * time.Second, sB.ID: 15 * time.Second, child.ID: 20 * time.Second,
	}
	for id, want := range wantOffsets {
		rs := mgrB.Session(id)
		if rs == nil {
			t.Fatalf("session %s not recovered", id)
		}
		if rs.State() != StateRecovered {
			t.Fatalf("session %s state %q, want %q", id, rs.State(), StateRecovered)
		}
		if rs.Offset() != want {
			t.Fatalf("session %s recovered at %v, want %v", id, rs.Offset(), want)
		}
	}

	// Drive every recovered session to the end; digests must match
	// uninterrupted in-process arms.
	spec, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	controlWith := func(inject bool) string {
		r, err := scenario.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Cloud.Close()
		if inject {
			if err := r.RunTo(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			if err := r.Inject(fault); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.RunTo(40 * time.Second); err != nil {
			t.Fatal(err)
		}
		return scenario.DigestTrace(r.Trace())
	}
	wantDigests := map[string]string{
		sA.ID: controlWith(true), sB.ID: controlWith(false), child.ID: controlWith(true),
	}
	for id, want := range wantDigests {
		rs := mgrB.Session(id)
		if err := rs.Advance(40 * time.Second); err != nil {
			t.Fatalf("post-recovery advance %s: %v", id, err)
		}
		if rs.State() != StateRunning {
			t.Fatalf("session %s state %q after first advance, want %q", id, rs.State(), StateRunning)
		}
		st, err := rs.Status()
		if err != nil {
			t.Fatal(err)
		}
		if !st.Finished || st.TraceDigest != want {
			t.Fatalf("session %s recovered run diverged: finished=%v digest %s, want %s",
				id, st.Finished, st.TraceDigest, want)
		}
	}

	// New sessions must not collide with recovered ids.
	fresh, err := mgrB.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := wantOffsets[fresh.ID]; taken {
		t.Fatalf("fresh session reused recovered id %s", fresh.ID)
	}
}

// A journal whose last stamp the replay does not reproduce quarantines
// with a reason naming the field: a doctored kernel digest, an offset
// the replay cannot land on, or a trace it does not record.
func TestRecoverQuarantinesDoctoredJournal(t *testing.T) {
	for _, tc := range []struct {
		field, reason string
		change        func(*store.Record)
	}{
		{"kernel_digest", "kernel digest mismatch", func(r *store.Record) { r.KernelDigest = "doctored" }},
		// Past the 40 s timeline: the replay stops at its end.
		{"at_ns", "offset mismatch", func(r *store.Record) { r.At = int64(time.Minute) }},
		{"trace_digest", "trace digest mismatch", func(r *store.Record) { r.TraceDigest = "doctored" }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			dir := t.TempDir()
			mgrA, _ := storedManager(t, dir)
			smallImage(t, mgrA, "base")
			s, err := mgrA.CreateSession("base", nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Advance(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "journals", s.ID+".journal")
			doctorLastRecord(t, path, tc.change)

			mgrB, rep := storedManager(t, dir)
			defer mgrB.Close()
			reason, quarantined := rep.SessionsQuarantined[s.ID]
			if !quarantined || !strings.Contains(reason, tc.reason) {
				t.Fatalf("journal with a doctored %s: quarantined %v, want a %q reason", tc.field, rep.SessionsQuarantined, tc.reason)
			}
			if mgrB.Session(s.ID) != nil {
				t.Fatalf("quarantined session %s is serving traffic", s.ID)
			}
			if mgrB.Quarantined(s.ID) == "" {
				t.Fatalf("quarantine reason for %s not recorded", s.ID)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", s.ID+".journal")); err != nil {
				t.Fatalf("quarantined journal body missing: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("quarantined journal still in journals/")
			}

			// A third lifetime keeps refusing it (the reason file persists).
			mgrC, repC := storedManager(t, dir)
			defer mgrC.Close()
			if mgrC.Quarantined(s.ID) == "" {
				t.Fatalf("third lifetime forgot the quarantine (report: %+v)", repC)
			}
		})
	}
}

// doctorLastRecord rewrites a journal's last record through change.
func doctorLastRecord(t *testing.T, path string, change func(*store.Record)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var last store.Record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	change(&last)
	doctored, _ := json.Marshal(last)
	lines[len(lines)-1] = string(doctored)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// An image record whose fingerprint or trace digest the rebuild does not
// reproduce quarantines: its .reason file is written, the image is not
// registered and images_quarantined counts it.
func TestRecoverQuarantinesDoctoredImage(t *testing.T) {
	for _, tc := range []struct {
		field, reason string
		change        func(*store.ImageRecord)
	}{
		{"fingerprint", "fingerprint mismatch", func(r *store.ImageRecord) { r.Fingerprint = "r4.h14@doctored" }},
		{"trace_digest", "trace digest mismatch", func(r *store.ImageRecord) { r.TraceDigest = "doctored" }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			dir := t.TempDir()
			mgrA, _ := storedManager(t, dir)
			smallImage(t, mgrA, "base")
			st := mgrA.Store()
			recs, err := st.Images()
			if err != nil || len(recs) != 1 {
				t.Fatalf("persisted images: %v, %v", recs, err)
			}
			tc.change(&recs[0])
			if err := st.SaveImage(recs[0]); err != nil {
				t.Fatal(err)
			}

			mgrB, rep := storedManager(t, dir)
			defer mgrB.Close()
			if reason := rep.ImagesQuarantined["base"]; !strings.Contains(reason, tc.reason) {
				t.Fatalf("image with a doctored %s: quarantined %v, want a %q reason", tc.field, rep.ImagesQuarantined, tc.reason)
			}
			if mgrB.Image("base") != nil || len(rep.ImagesRebuilt) != 0 {
				t.Fatalf("doctored image registered (rebuilt %v)", rep.ImagesRebuilt)
			}
			if got := mgrB.Metrics()["images_quarantined"]; got != 1 {
				t.Fatalf("images_quarantined = %v, want 1", got)
			}
			if _, err := os.Stat(filepath.Join(dir, "quarantine", "img-base.json.reason")); err != nil {
				t.Fatalf("quarantine reason file missing: %v", err)
			}
		})
	}
}

// Images of one fingerprint and recipe rebuild once on recovery and
// share the checkpoint, as they did when they were created; an image of
// the same machine with a longer timeline rebuilds on its own.
func TestRecoverSharesIdenticalImages(t *testing.T) {
	dir := t.TempDir()
	mgrA, _ := storedManager(t, dir)
	smallImage(t, mgrA, "a")
	smallImage(t, mgrA, "b")
	longer := smallSpec()
	longer.Duration *= 2
	if _, err := mgrA.CreateImage("c", longer, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	mgrB, rep := storedManager(t, dir)
	defer mgrB.Close()
	if len(rep.ImagesRebuilt) != 3 || len(rep.ImagesQuarantined) != 0 {
		t.Fatalf("rebuilt %v, quarantined %v", rep.ImagesRebuilt, rep.ImagesQuarantined)
	}
	if rep.ImagesShared != 1 {
		t.Fatalf("images shared on recovery = %d, want 1", rep.ImagesShared)
	}
	a, b, c := mgrB.Image("a"), mgrB.Image("b"), mgrB.Image("c")
	if a.chk != b.chk || a.chk == c.chk {
		t.Fatal("recovered images share checkpoints other than a and b's")
	}
}

// TestRecoverCommittedDataDir recovers testdata/datadir, which an
// earlier build wrote with smallSpec: the recipe of image "base" and
// the journal of session s-0001 forked from it (create at 10 s, advance
// to 20 s, a rack failure injected there, advance to 30 s, checkpoint).
// It holds journals and image recipes readable, and their stamps
// reproducible, across changes to the code that writes them.
func TestRecoverCommittedDataDir(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the committed stamps carry amd64 float rounding")
	}
	dir := t.TempDir()
	src := filepath.Join("testdata", "datadir")
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, rep := storedManager(t, dir)
	defer mgr.Close()
	if len(rep.ImagesQuarantined) != 0 || len(rep.SessionsQuarantined) != 0 {
		t.Fatalf("quarantined images %v, sessions %v", rep.ImagesQuarantined, rep.SessionsQuarantined)
	}
	if len(rep.ImagesRebuilt) != 1 || rep.ImagesRebuilt[0] != "base" {
		t.Fatalf("images rebuilt: %v", rep.ImagesRebuilt)
	}
	if len(rep.SessionsRecovered) != 1 || rep.SessionsRecovered[0] != "s-0001" {
		t.Fatalf("sessions recovered: %v", rep.SessionsRecovered)
	}
	s := mgr.Session("s-0001")
	if s.State() != StateRecovered || s.Offset() != 30*time.Second {
		t.Fatalf("session s-0001 %s at %v, want %s at 30s", s.State(), s.Offset(), StateRecovered)
	}
	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	const wantTrace = "39ff4c7e0ff6c538d0b14f81d0248a803661e4876a9372c0f9b7d8a060f50057"
	if st.TraceLen != 4 || st.TraceDigest != wantTrace {
		t.Fatalf("recovered trace %d events, digest %s; want 4, %s", st.TraceLen, st.TraceDigest, wantTrace)
	}
}

// A fork's record is journaled on the forking caller's goroutine, so an
// advance the session serves meanwhile can be journaled first. The
// late fork record, stamped at the earlier capture, must neither move
// the durable offset back nor become the stamp recovery verifies.
func TestRecoverForkRecordAfterLaterAdvance(t *testing.T) {
	dir := t.TempDir()
	mgrA, _ := storedManager(t, dir)
	smallImage(t, mgrA, "base")
	s, err := mgrA.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	v, err := s.do(func(r *scenario.Run) (any, error) { return r.Stamp(), nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The fork record of a capture at 15 s lands after the advance to 30 s.
	if err := s.journalStamped(store.Record{Op: "fork", Child: "s-9999"}.Stamped(v.(scenario.Stamp))); err != nil {
		t.Fatal(err)
	}
	if got := s.DurableOffset(); got != 30*time.Second {
		t.Fatalf("durable offset %v after a late fork record, want 30s", got)
	}

	mgrB, rep := storedManager(t, dir)
	defer mgrB.Close()
	if len(rep.SessionsQuarantined) != 0 {
		t.Fatalf("quarantined %v", rep.SessionsQuarantined)
	}
	if rs := mgrB.Session(s.ID); rs == nil || rs.Offset() != 30*time.Second {
		t.Fatalf("session %s not recovered at 30s (report %+v)", s.ID, rep)
	}
}

func TestCleanCloseRetiresJournal(t *testing.T) {
	dir := t.TempDir()
	mgrA, _ := storedManager(t, dir)
	smallImage(t, mgrA, "base")
	s, err := mgrA.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(filepath.Join(dir, "journals", s.ID+".journal")); !os.IsNotExist(err) {
		t.Fatal("clean close left the journal behind")
	}
	mgrB, rep := storedManager(t, dir)
	defer mgrB.Close()
	if len(rep.SessionsRecovered) != 0 || len(rep.SessionsQuarantined) != 0 {
		t.Fatalf("closed session resurrected: %+v", rep)
	}
}

func TestPanicIsolatesToSession(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	smallImage(t, mgr, "base")
	victim, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}

	// A programmatic fault that blows the kernel up mid-advance.
	if err := victim.Inject(scenario.HookFault{At: 20 * time.Second, Name: "bomb",
		Run: func(*scenario.Run) error { panic("boom") }}); err != nil {
		t.Fatal(err)
	}
	err = victim.Advance(40 * time.Second)
	var failed *FailedError
	if !errors.As(err, &failed) || !strings.Contains(failed.Reason, "boom") {
		t.Fatalf("advance over a panicking kernel: %v", err)
	}
	if victim.State() != StateFailed {
		t.Fatalf("victim state %q, want %q", victim.State(), StateFailed)
	}
	st, err := victim.Status()
	if err != nil {
		t.Fatalf("status on failed session must degrade, got %v", err)
	}
	if st.State != StateFailed || !strings.Contains(st.Failure, "boom") {
		t.Fatalf("failed status = %+v", st)
	}
	// Every later kernel-touching command is refused with the reason.
	if err := victim.Advance(40 * time.Second); !errors.As(err, &failed) {
		t.Fatalf("second advance on failed session: %v", err)
	}
	if err := victim.Inject(scenario.RackFail{Rack: 1, At: 30 * time.Second, Outage: time.Second}); !errors.As(err, &failed) {
		t.Fatalf("inject on failed session: %v", err)
	}
	if got := mgr.Metrics()["sessions_failed"]; got != 1 {
		t.Fatalf("sessions_failed = %v, want 1", got)
	}

	// The sibling session — and the daemon — never noticed.
	if err := bystander.Advance(40 * time.Second); err != nil {
		t.Fatalf("bystander advance: %v", err)
	}
	bst, err := bystander.Status()
	if err != nil || !bst.Finished {
		t.Fatalf("bystander status: %+v, %v", bst, err)
	}
	// And the failed session still closes cleanly.
	victim.Close()
	if mgr.Session(victim.ID) != nil {
		t.Fatal("failed session still listed after close")
	}
}

func TestDrainYieldsAdvanceWithJournalCurrent(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := storedManager(t, dir)
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Trigger the drain from inside the timeline at exactly 25s: the
	// hook fires mid-RunTo, waits until drainCh is closed, and the
	// advance must then yield at that very slice boundary. The hook is
	// installed through the mailbox directly — programmatic faults have
	// no wire form, which is exactly why Session.Inject refuses them on
	// a journaled session.
	drained := make(chan struct{})
	hook := scenario.HookFault{At: 25 * time.Second, Name: "drain-trigger",
		Run: func(*scenario.Run) error {
			go func() { mgr.Drain(); close(drained) }()
			<-mgr.drainCh
			return nil
		}}
	if _, err := s.do(func(r *scenario.Run) (any, error) { return nil, r.Inject(hook) }); err != nil {
		t.Fatal(err)
	}

	err = s.Advance(40 * time.Second)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("advance through a drain: %v", err)
	}
	<-drained
	if s.State() != StateDraining {
		t.Fatalf("state %q, want %q", s.State(), StateDraining)
	}
	if s.Offset() != 25*time.Second {
		t.Fatalf("yielded at %v, want the 25s slice boundary", s.Offset())
	}
	if s.DurableOffset() != s.Offset() {
		t.Fatalf("journal lag after drain: durable %v, offset %v", s.DurableOffset(), s.Offset())
	}
	// A draining manager refuses new work.
	if _, err := mgr.CreateSession("base", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("create session while draining: %v", err)
	}
	if _, err := mgr.CreateImage("late", smallSpec(), 10*time.Second); !errors.Is(err, ErrDraining) {
		t.Fatalf("create image while draining: %v", err)
	}
}

func TestInjectWithoutWireFormRefusedWhenJournaled(t *testing.T) {
	dir := t.TempDir()
	mgr, _ := storedManager(t, dir)
	defer mgr.Close()
	smallImage(t, mgr, "base")
	s, err := mgr.CreateSession("base", nil)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Inject(scenario.HookFault{At: 20 * time.Second, Run: func(*scenario.Run) error { return nil }})
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("unjournalable inject on a durable session: %v", err)
	}
}
