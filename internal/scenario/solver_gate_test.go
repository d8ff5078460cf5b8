package scenario

// Gates for the incremental congestion-domain solver at scenario level:
//
//   - TestIncrementalMatchesFullSolver runs every canned scenario twice,
//     once with the default incremental allocator and once with netsim's
//     full re-solve-every-domain reference mode (KernelMode.FullRecompute,
//     set on the built cloud), and requires byte-identical event
//     traces, identical engine event counts and identical metrics. This
//     is the whole-system half of the solver contract (the per-rate
//     mathematical half lives in netsim's differential test).
//
//   - TestMegafleet1000TraceDigest pins the megafleet-1000 trace digest:
//     any change to solver arithmetic, event ordering or RNG consumption
//     shows up here as a loud CI failure instead of a silent behaviour
//     drift. Update the constant only for intentional changes, and note
//     why in the commit.

import (
	"runtime"
	"testing"

	"repro/internal/netsim"
)

func TestIncrementalMatchesFullSolver(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			// The megafleets are too big to build twice in a unit test;
			// ~1000-node slices of them exercise the same machinery.
			spec = shrinkForGate(spec)
			full := executeKernelVariant(t, spec, netMode(netsim.KernelMode{FullRecompute: true}))
			requireIdentical(t, "incremental vs full solver", kernelBaseline(t, name), full)
		})
	}
}

// megafleet1000Digest is the pinned trace fingerprint of the canned
// megafleet-1000 scenario — the determinism regression gate.
// (Unchanged from the seed's global solver: the congestion-domain
// refactor reproduced it bit for bit.)
const megafleet1000Digest = "195dd08ff59ec7db21dcef711be699fc851e037e730322bda104d94353247977"

func TestMegafleet1000TraceDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse float multiply-adds on other architectures
		// (arm64 FMSUB), legally shifting completion times by an ulp;
		// the pinned constant is the amd64 rounding CI runs on.
		t.Skipf("digest pinned for amd64 rounding; GOARCH=%s", runtime.GOARCH)
	}
	spec, err := Catalog("megafleet-1000")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.TraceDigest(); got != megafleet1000Digest {
		t.Fatalf("megafleet-1000 trace digest drifted:\n  got  %s\n  want %s\n"+
			"If this change is intentional, update megafleet1000Digest and explain why.",
			got, megafleet1000Digest)
	}
	if rep.Nodes < 1000 {
		t.Fatalf("gate ran on %d nodes, want ≥ 1000", rep.Nodes)
	}
}
