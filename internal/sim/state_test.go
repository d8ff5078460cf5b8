package sim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// writeStateFmt is the fmt rendering AppendState replaced, kept as its
// oracle: the same bytes, one Fprintf per line.
func writeStateFmt(e *Engine, w io.Writer) {
	fmt.Fprintf(w, "sim now=%d seq=%d fired=%d\n", int64(e.now), e.seq, e.fired)
	out := make([]PendingEvent, 0, len(e.queue))
	for _, n := range e.queue {
		if !n.canceled {
			out = append(out, PendingEvent{At: n.at, Seq: n.seq})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	for _, p := range out {
		fmt.Fprintf(w, "ev %d %d\n", int64(p.At), p.Seq)
	}
}

// TestStateRenderMatchesFmt: the engine's strconv rendering writes the
// fmt oracle's bytes on random schedules with cancelled events, fired
// events and events at one instant, and a reused buffer and scratch
// change nothing.
func TestStateRenderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		e := NewEngine(int64(trial))
		var evs []Event
		var buf []byte
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				d := time.Duration(rng.Intn(50)) * time.Millisecond
				evs = append(evs, e.Schedule(d, func() {}))
			case op < 8 && len(evs) > 0:
				evs[rng.Intn(len(evs))].Cancel()
			default:
				if err := e.RunFor(time.Duration(rng.Intn(20)) * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			var want bytes.Buffer
			writeStateFmt(e, &want)
			buf = e.AppendState(buf[:0], nil)
			if !bytes.Equal(buf, want.Bytes()) {
				t.Fatalf("trial %d step %d:\n%s\nwant\n%s", trial, step, buf, want.Bytes())
			}
		}
	}
}

// TestAppendHex64MatchesFmt: AppendHex64 prints what %016x prints, for
// edge values and random float bit patterns.
func TestAppendHex64MatchesFmt(t *testing.T) {
	vals := []uint64{0, 1, 0xf, 0x10, math.MaxUint64, math.Float64bits(1.5), math.Float64bits(-0.0), math.Float64bits(math.Inf(1))}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Uint64(), math.Float64bits(rng.NormFloat64()*1e9))
	}
	for _, v := range vals {
		if got, want := string(AppendHex64(nil, v)), fmt.Sprintf("%016x", v); got != want {
			t.Fatalf("AppendHex64(%#x) = %q, want %q", v, got, want)
		}
	}
}

// TestStateHashMatchesWholeRendering: a rendering handed to Spill line
// by line, across several full chunks and a line longer than the
// chunk's slack, hashes to the SHA-256 of the whole rendering, and a
// nil StateHash keeps every line in the buffer.
func TestStateHashMatchesWholeRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sh := NewStateHash()
	buf := sh.Buf()
	var whole, kept []byte
	for i := 0; i < 2000; i++ {
		line := bytes.Repeat([]byte{byte('a' + i%26)}, 1+rng.Intn(200))
		if i == 1000 {
			line = bytes.Repeat([]byte{'L'}, 2*chunkSlack)
		}
		line = append(line, '\n')
		whole = append(whole, line...)
		buf = sh.Spill(append(buf, line...))
		kept = (*StateHash)(nil).Spill(append(kept, line...))
	}
	if len(whole) < 3*stateChunk {
		t.Fatalf("the rendering is %d bytes, under three chunks", len(whole))
	}
	if got, want := sh.Sum(buf), sha256.Sum256(whole); got != want {
		t.Fatalf("chunked digest %x, whole rendering %x", got, want)
	}
	if !bytes.Equal(kept, whole) {
		t.Fatal("a nil StateHash spilled")
	}
}
