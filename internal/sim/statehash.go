package sim

import (
	"crypto/sha256"
	"hash"
)

// stateChunk is how much of a state rendering StateHash holds before it
// hashes it: room for hundreds of the layers' lines, each far shorter
// than the chunk's slack.
const (
	stateChunk = 32 << 10
	chunkSlack = 4 << 10
)

// StateHash is the SHA-256 of a kernel-state rendering, hashed as it is
// rendered: each layer's AppendState appends its lines to the chunk
// Buf returns and hands the buffer to Spill between lines, which hashes
// and empties it once it holds a full chunk. A rendering of any size so
// costs one fixed chunk. A nil *StateHash never spills, so a renderer
// handed nil appends its whole rendering to its buffer.
type StateHash struct {
	h   hash.Hash
	buf []byte
}

// NewStateHash returns a hash with an empty chunk.
func NewStateHash() *StateHash {
	return &StateHash{h: sha256.New(), buf: make([]byte, 0, stateChunk+chunkSlack)}
}

// Buf returns the empty chunk to render into.
func (s *StateHash) Buf() []byte { return s.buf[:0] }

// Spill takes a rendering buffer that ends at a line boundary: once it
// holds a full chunk it is hashed and returned empty, and otherwise it
// is returned as it is.
func (s *StateHash) Spill(buf []byte) []byte {
	if s == nil || len(buf) < stateChunk {
		return buf
	}
	s.h.Write(buf)
	return buf[:0]
}

// Sum hashes buf, the rendering's rest, and returns the digest of the
// whole rendering.
func (s *StateHash) Sum(buf []byte) [sha256.Size]byte {
	s.h.Write(buf)
	var sum [sha256.Size]byte
	s.h.Sum(sum[:0])
	return sum
}
