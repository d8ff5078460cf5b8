package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for piscale: with
// PISCALE_TEST_MAIN set it runs main on its own arguments instead of the
// tests, so the tests below drive the real command line.
func TestMain(m *testing.M) {
	if os.Getenv("PISCALE_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// piscale runs the command with args and returns its combined output
// and exit error.
func piscale(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PISCALE_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// A checkpoint file written with the retired kernel-mode fields (see
// internal/cliconfig/legacy_test.go) resumes and verifies: those modes
// never changed the kernel state, and the fields are now ignored.
func TestResumeLegacyKernelFieldsCheckpoint(t *testing.T) {
	out, err := piscale(t, "-resume-from", "../../internal/cliconfig/testdata/legacy-kernel-fields.ckpt.json", "-q")
	if err != nil {
		t.Fatalf("resume failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "resume verified") {
		t.Fatalf("resume did not verify the checkpoint:\n%s", out)
	}
}

// A checkpoint recorded under the retired Dijkstra-only routing mode
// carries a kernel digest whose SDN state counts zero synthesised
// routes. The single kernel synthesises, so resume must refuse the file
// loudly rather than continue from a state that differs from the
// recorded one.
func TestResumeDijkstraOnlyCheckpointRefused(t *testing.T) {
	out, err := piscale(t, "-resume-from", "../../internal/cliconfig/testdata/legacy-dijkstra-only.ckpt.json", "-q")
	if err == nil {
		t.Fatalf("resume accepted a checkpoint from the retired Dijkstra-only kernel:\n%s", out)
	}
	if !strings.Contains(out, "does not match the checkpoint") {
		t.Fatalf("resume failed for the wrong reason:\n%s", out)
	}
}
