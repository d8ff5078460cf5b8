package session

// Race-detector coverage for the session concurrency discipline, on a
// deliberately tiny fleet (4×14, 40s timeline) so every test is an
// interleaving exercise rather than a simulation benchmark:
//
//   - one session hammered by parallel inject/checkpoint/fork/status
//     while its kernel is mid-advance (quick commands land at slice
//     boundaries; a concurrent advance may only fail with ErrBusy);
//   - sibling sessions forked concurrently from one shared base image,
//     where identical op sequences must reach identical digests and
//     divergent injections must not leak across forks;
//   - lifecycle edges: close-mid-advance, double close, commands
//     against a closed session, duplicate image names, checkpoint
//     sharing between images capturing identical machines from
//     identical recipes, and none between images whose futures differ.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/scenario"
)

// smallSpec is megafleet-1000 shrunk to 56 nodes and 40 simulated
// seconds — milliseconds of wall time per full run.
func smallSpec() cliconfig.SpecRequest {
	return cliconfig.SpecRequest{
		Scenario: "megafleet-1000",
		Racks:    4, HostsPerRack: 14,
		Duration: cliconfig.Duration(40 * time.Second),
		Sample:   cliconfig.Duration(5 * time.Second),
	}
}

func smallImage(t *testing.T, mgr *Manager, name string) *BaseImage {
	t.Helper()
	img, err := mgr.CreateImage(name, smallSpec(), 10*time.Second)
	if err != nil {
		t.Fatalf("image %s: %v", name, err)
	}
	return img
}

func TestSessionConcurrentOpsOneSession(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	smallImage(t, mgr, "small")
	s, err := mgr.CreateSession("small", nil)
	if err != nil {
		t.Fatal(err)
	}

	// The kernel advances the whole timeline while eight tenants issue
	// quick commands and forks against it. Everything must either
	// succeed or — for a racing advance — fail with ErrBusy; the race
	// detector watches the rest. Every advance targets the timeline
	// end, so whichever one wins the mailbox (including one of the
	// racers below beating this goroutine to it) drives the session to
	// exactly 40s.
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.Advance(40 * time.Second); err != nil && !errors.Is(err, ErrBusy) {
			errCh <- fmt.Errorf("advance: %w", err)
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				// At = the timeline end, so the action is valid at every
				// offset the race can land on — including exactly 40s,
				// where it is captured (and fork-replayed) as pending.
				if err := s.Inject(scenario.RackFail{Rack: i % 4, At: 40 * time.Second,
					Outage: time.Duration(1+i) * time.Second}); err != nil {
					errCh <- fmt.Errorf("inject: %w", err)
				}
			case 1:
				if _, err := s.Checkpoint(""); err != nil {
					errCh <- fmt.Errorf("checkpoint: %w", err)
				}
			case 2:
				child, err := s.Fork()
				if err != nil {
					errCh <- fmt.Errorf("fork: %w", err)
					return
				}
				child.Close()
			default:
				if _, err := s.Status(); err != nil {
					errCh <- fmt.Errorf("status: %w", err)
				}
				if err := s.Advance(40 * time.Second); err != nil && !errors.Is(err, ErrBusy) {
					errCh <- fmt.Errorf("racing advance: %w", err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Offset != 40*time.Second || !st.Finished {
		// A racing advance that won the mailbox first may have been the
		// one that finished the timeline; either way the session must
		// land exactly on the end.
		t.Fatalf("session ended at %v (finished=%v), want 40s", st.Offset, st.Finished)
	}
	// Two of each quick command ran, whichever order they landed in.
	for key, want := range map[string]float64{
		"injects": 2, "checkpoints": 2, "forks": 2, "offset_ns": float64(40 * time.Second),
	} {
		if got := st.Metrics[key]; got != want {
			t.Errorf("Status().Metrics[%q] = %v, want %v", key, got, want)
		}
	}
}

func TestSessionsSharedImageDeterministic(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	smallImage(t, mgr, "small")

	// Six sessions forked concurrently from the shared image. The first
	// two perform the identical history (same fault, same offsets) and
	// must reach the identical digest; the rest inject divergent faults
	// whose digests must differ from the twins'.
	fault := func(i int) scenario.Fault {
		if i < 2 {
			return scenario.RackFail{Rack: 2, At: 30 * time.Second, Outage: 5 * time.Second}
		}
		return scenario.RackFail{Rack: i % 4, At: 25 * time.Second,
			Outage: time.Duration(3+i) * time.Second}
	}
	digests := make([]string, 6)
	errs := make([]error, 6)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				s, err := mgr.CreateSession("small", nil)
				if err != nil {
					return err
				}
				if err := s.Advance(20 * time.Second); err != nil {
					return err
				}
				if err := s.Inject(fault(i)); err != nil {
					return err
				}
				if err := s.Advance(40 * time.Second); err != nil {
					return err
				}
				st, err := s.Status()
				if err != nil {
					return err
				}
				if !st.Finished {
					return fmt.Errorf("not finished at %v", st.Offset)
				}
				digests[i] = st.TraceDigest
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("identical histories diverged: %s vs %s", digests[0], digests[1])
	}
	for i := 2; i < 6; i++ {
		if digests[i] == digests[0] {
			t.Fatalf("divergent fault %d reproduced the twins' digest %s", i, digests[i])
		}
	}
}

func TestImageFingerprintSharing(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	a := smallImage(t, mgr, "a")
	b := smallImage(t, mgr, "b") // identical spec and offset → identical machine
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("identical captures fingerprint differently: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if got := mgr.Metrics()["images_shared"]; got != 1 {
		t.Fatalf("images_shared = %v, want 1", got)
	}
	if _, err := mgr.CreateImage("a", smallSpec(), 10*time.Second); err == nil {
		t.Fatal("duplicate image name accepted")
	}
}

// Two images of one scenario at one offset capture the same machine,
// so their fingerprints agree, but a longer timeline is a different
// future: a session forked from the 4-minute image must run 4 minutes,
// not stop where the 1-minute image's timeline ends.
func TestImageSharingNeedsSameRecipe(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	req := func(d time.Duration) cliconfig.SpecRequest {
		return cliconfig.SpecRequest{Scenario: "rack-blackout", Duration: cliconfig.Duration(d)}
	}
	a, err := mgr.CreateImage("a", req(time.Minute), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.CreateImage("b", req(4*time.Minute), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("one machine at one offset fingerprints differently: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if got := mgr.Metrics()["images_shared"]; got != 0 {
		t.Fatalf("images_shared = %v, want 0: the images' timelines differ", got)
	}
	s, err := mgr.CreateSession("b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	st, err := s.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Duration != 4*time.Minute || st.Offset != 4*time.Minute || !st.Finished {
		t.Fatalf("session of image b: offset %v of %v (finished %v), want 4m0s of 4m0s", st.Offset, st.Duration, st.Finished)
	}
}

// An image whose recipe dropped an injection it could not encode (no
// store attached, so the capture was allowed) shares nothing, in
// either registration order: its sessions must replay the dropped
// fault, and an image without it must not.
func TestImageWithDroppedInjectionSharesNothing(t *testing.T) {
	for _, hookedFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("hooked first %v", hookedFirst), func(t *testing.T) {
			mgr := NewManager()
			defer mgr.Close()
			smallImage(t, mgr, "small")
			var fired atomic.Int32
			hook := scenario.HookFault{At: 30 * time.Second, Name: "count",
				Run: func(*scenario.Run) error { fired.Add(1); return nil }}
			capture := func(image string, inject bool) {
				s, err := mgr.CreateSession("small", nil)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.Advance(20 * time.Second); err != nil {
					t.Fatal(err)
				}
				if inject {
					if err := s.Inject(hook); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Checkpoint(image); err != nil {
					t.Fatal(err)
				}
			}
			if hookedFirst {
				capture("hooked", true)
				capture("plain", false)
			} else {
				capture("plain", false)
				capture("hooked", true)
			}
			if got := mgr.Metrics()["images_shared"]; got != 0 {
				t.Fatalf("images_shared = %v, want 0", got)
			}
			for _, tc := range []struct {
				image string
				fires int32
			}{{"plain", 0}, {"hooked", 1}} {
				fired.Store(0)
				s, err := mgr.CreateSession(tc.image, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Advance(40 * time.Second); err != nil {
					t.Fatal(err)
				}
				if got := fired.Load(); got != tc.fires {
					t.Fatalf("a session of image %q fired the hook %d times, want %d", tc.image, got, tc.fires)
				}
			}
		})
	}
}

func TestSessionCloseEdges(t *testing.T) {
	mgr := NewManager()
	defer mgr.Close()
	smallImage(t, mgr, "small")
	s, err := mgr.CreateSession("small", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Close racing an in-flight advance: the advance aborts at a slice
	// boundary, the session unlinks, and every later command reports
	// the closure instead of hanging.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = s.Advance(40 * time.Second) // may complete or be aborted
	}()
	s.Close()
	s.Close() // idempotent
	wg.Wait()
	if mgr.Session(s.ID) != nil {
		t.Fatal("closed session still listed")
	}
	if err := s.Advance(time.Second); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("advance on closed session: %v", err)
	}
	if _, err := s.Status(); err == nil {
		t.Fatal("status on closed session succeeded")
	}
	if _, err := mgr.CreateSession("missing", nil); err == nil {
		t.Fatal("unknown base image accepted")
	}
	if _, err := mgr.CreateSession("", nil); err == nil {
		t.Fatal("sessionless create accepted")
	}
}
