package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
)

// wiringDigest hashes a wiring with SHA-256: the node count, each
// node's name and kind in index order, the cable count, each cable's
// ends by index, capacity bits and latency in order, and the epoch.
func wiringDigest(w *netsim.Wiring) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(w.NodeCount()))
	for i := int32(0); int(i) < w.NodeCount(); i++ {
		nd := w.NodeAt(i)
		h.Write([]byte(nd.ID))
		h.Write([]byte{0, byte(nd.Kind)})
	}
	put(uint64(w.CableCount()))
	for i := 0; i < w.CableCount(); i++ {
		a, c, capacity, latency := w.Cable(i)
		put(uint64(a))
		put(uint64(c))
		put(math.Float64bits(capacity))
		put(uint64(latency))
	}
	put(w.Epoch())
	return hex.EncodeToString(h.Sum(nil))
}

// TestFabricWiringPinned: every builder emits the nodes (names, kinds,
// creation order), cables (ends, order, parameters) and epoch that the
// one-at-a-time builders it replaced wired into a live network, at two
// or three shapes each, a partly filled fat-tree and a rack of more
// than 100 hosts among them. The digests were taken from those
// builders' networks (their node list, link list and epoch).
func TestFabricWiringPinned(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (*Topology, *netsim.Wiring, error)
		want  string
	}{
		{"multi-root/published", func() (*Topology, *netsim.Wiring, error) {
			return BuildMultiRoot(DefaultMultiRoot())
		}, "5cb0d5327756c6034b190bb5328bbc88a1454b50b1992801827f0f43810af28a"},
		{"multi-root/3x5-agg3", func() (*Topology, *netsim.Wiring, error) {
			cfg := DefaultMultiRoot()
			cfg.Racks, cfg.HostsPerRack, cfg.AggSwitches = 3, 5, 3
			return BuildMultiRoot(cfg)
		}, "0ad516d259e577dc1c04d77cf41be3655256ab05e38d3215e10af120a1f7feff"},
		{"multi-root/2x120-agg1", func() (*Topology, *netsim.Wiring, error) {
			return BuildMultiRoot(MultiRootConfig{Racks: 2, HostsPerRack: 120, AggSwitches: 1,
				HostLinkBps: 1e7, UplinkBps: 2.5e8, Latency: 7 * time.Microsecond})
		}, "6faa976de47a1ccafa61c9b67c959f4cb887ad1c55834fc313e07df7f1bc4d80"},
		{"fat-tree/k2", func() (*Topology, *netsim.Wiring, error) {
			return BuildFatTree(FatTreeConfig{K: 2})
		}, "7284a8dada3cec4a8be5cc36bf9e689d576ba05d1f222731e1d3fc0195d9e975"},
		{"fat-tree/k6-40-hosts", func() (*Topology, *netsim.Wiring, error) {
			return BuildFatTree(FatTreeConfig{K: 6, Hosts: 40, UplinkBps: 4e8, Latency: 3 * time.Microsecond})
		}, "22af260b5450fbdf38c7130010d7186f23aebe9f8fb9b5f070ac747d70b40fc5"},
		{"fat-tree/k8", func() (*Topology, *netsim.Wiring, error) {
			return BuildFatTree(FatTreeConfig{K: 8})
		}, "2cc4413c5f2182dc23b1d334103ae6260079528eee25b08789e031ae5b94d74c"},
		{"leaf-spine/published", func() (*Topology, *netsim.Wiring, error) {
			return BuildLeafSpine(DefaultLeafSpine())
		}, "10af2e6cba2b24c1d995403a955347220ff6a2876bcf565cc71b6e2a018c1d33"},
		{"leaf-spine/3x4x6", func() (*Topology, *netsim.Wiring, error) {
			cfg := DefaultLeafSpine()
			cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 3, 4, 6
			return BuildLeafSpine(cfg)
		}, "aa3462be6c14b60d03fd28cfced9a8d36fd3f8dad89c17355e97963514eee84a"},
		{"leaf-spine/1x1x1", func() (*Topology, *netsim.Wiring, error) {
			return BuildLeafSpine(LeafSpineConfig{Leaves: 1, Spines: 1, HostsPerLeaf: 1})
		}, "6bec88b463d3fee0cbed3334ff0f756943bb172e8ad722ff70aee1869d88ef4f"},
	} {
		_, w, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := wiringDigest(w); got != c.want {
			t.Errorf("%s: wiring digest %s, want %s", c.name, got, c.want)
		}
	}
}
