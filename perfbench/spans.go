package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// recorder keeps the benchmark's own spans — one around every timed
// call into a layer — and per-slice kernel counter samples, in memory
// until the traced run writes them out. A nil recorder still times:
// begin/end return the elapsed seconds, so the untraced and traced
// paths share one code path.
type recorder struct {
	epoch  time.Time
	events []benchEvent
}

type benchEvent struct {
	name  string
	layer string
	ph    string // "X" complete span, "C" counter sample
	start time.Time
	dur   time.Duration
	args  map[string]any
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// span is an open timed interval.
type span struct {
	rec   *recorder
	name  string
	layer string
	start time.Time
}

func (r *recorder) begin(name, layer string) *span {
	return &span{rec: r, name: name, layer: layer, start: time.Now()}
}

// end closes the span, records it when tracing, and returns its wall
// time in seconds.
func (s *span) end() float64 { return s.endArgs(nil) }

func (s *span) endArgs(args map[string]any) float64 {
	d := time.Since(s.start)
	if s.rec != nil {
		s.rec.events = append(s.rec.events, benchEvent{name: s.name, layer: s.layer, ph: "X", start: s.start, dur: d, args: args})
	}
	return d.Seconds()
}

// counter records a sample of named values at the current instant.
func (r *recorder) counter(name string, vals map[string]any) {
	if r != nil {
		r.events = append(r.events, benchEvent{name: name, layer: "kernel", ph: "C", start: time.Now(), args: vals})
	}
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace merges the benchmark's spans (one track, "bench",
// so nested calls show nested) with the program's own spans from tr
// (one track per category: scenario run-to, netsim flush, checkpoint
// kernel-state/verify/fork-reenact, session advance-slice) into one
// Chrome trace-event file.
func (r *recorder) writeChromeTrace(path string, tr *obs.Tracer) error {
	tracks := map[string]int{"bench": 1, "kernel": 2}
	spans := tr.Spans()
	var cats []string
	for _, s := range spans {
		if _, ok := tracks[s.Cat]; !ok {
			tracks[s.Cat] = 0
			cats = append(cats, s.Cat)
		}
	}
	sort.Strings(cats)
	for i, c := range cats {
		tracks[c] = 3 + i
	}
	us := func(t time.Time) float64 { return float64(t.Sub(r.epoch)) / float64(time.Microsecond) }
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench traced run"}}}
	for name, tid := range tracks {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": name}})
	}
	for _, e := range r.events {
		ev := chromeEvent{Name: e.name, Cat: e.layer, Ph: e.ph, Ts: us(e.start), Pid: 1, Tid: tracks["bench"], Args: e.args}
		if e.ph == "X" {
			ev.Dur = float64(e.dur) / float64(time.Microsecond)
		} else {
			ev.Tid = tracks["kernel"]
		}
		events = append(events, ev)
	}
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X", Ts: us(s.WallStart),
			Dur: float64(s.WallDur) / float64(time.Microsecond), Pid: 1, Tid: tracks[s.Cat],
			Args: map[string]any{"sim_start_s": time.Duration(s.SimStart).Seconds(), "sim_end_s": time.Duration(s.SimEnd).Seconds()},
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
