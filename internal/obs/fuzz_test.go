package obs

import (
	"math"
	"strings"
	"testing"
)

// FuzzPrometheusExposition registers one gauge under an arbitrary
// metric name, label key, label value and help text on a fresh
// registry, then writes the exposition. Nothing may panic; every line
// must be a `# HELP`, a `# TYPE` or a `name{key="value"} number` line of
// the text format, with names in the format's grammar; and un-escaping
// the label value and the help text must give them back, invalid UTF-8
// replaced rune by rune.
//
//	go test -run '^$' -fuzz FuzzPrometheusExposition -fuzztime 30s ./internal/obs
func FuzzPrometheusExposition(f *testing.F) {
	f.Add("pisim_events_total", "session", "s-0001", "Events fired.", 12.0)
	f.Add("weird-name.metric", "a:b", "line1\nline2 \"q\" C:\\tmp", "two\nlines \\ \"quoted\"", math.NaN())
	f.Add("", "", "", "", math.Inf(-1))
	f.Add("9x:y", "0le", "\xff\xfe} 1", "\xff", -0.0)
	f.Fuzz(func(t *testing.T, name, key, value, help string, v float64) {
		r := NewRegistry()
		r.Gauge(name, L(key, value)).Set(v)
		r.SetHelp(name, help)
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		text, ok := strings.CutSuffix(b.String(), "\n")
		if !ok {
			t.Fatalf("exposition does not end in a newline: %q", b.String())
		}
		lines := strings.Split(text, "\n")
		if help != "" {
			rest, ok := strings.CutPrefix(lines[0], "# HELP ")
			metric, got, _ := strings.Cut(rest, " ")
			if !ok || !validName(metric, true) {
				t.Fatalf("first line %q is not a HELP line", lines[0])
			}
			if got, ok = unescapeHelp(got); !ok || got != string([]rune(help)) {
				t.Fatalf("HELP line %q un-escapes to %q, want %q", lines[0], got, help)
			}
			lines = lines[1:]
		}
		if len(lines) != 2 {
			t.Fatalf("want a TYPE line and one sample, got %q", lines)
		}
		typ := strings.Split(lines[0], " ")
		if len(typ) != 4 || typ[0] != "#" || typ[1] != "TYPE" || !validName(typ[2], true) || typ[3] != "gauge" {
			t.Fatalf("malformed TYPE line %q", lines[0])
		}
		s := parseSeriesLine(t, lines[1])
		if s.name != typ[2] || len(s.labels) != 1 {
			t.Fatalf("sample line %q is not one labelled series of %s", lines[1], typ[2])
		}
		for k, got := range s.labels {
			if !validName(k, false) || got != string([]rune(value)) {
				t.Fatalf("sample line %q: label %q=%q, want a label name and %q", lines[1], k, got, value)
			}
		}
		if !math.IsNaN(v) && !math.IsInf(v, 0) && s.value != v {
			t.Fatalf("sample line %q: value %v, want %v", lines[1], s.value, v)
		}
	})
}

// validName reports whether s is a metric name ([a-zA-Z_:][a-zA-Z0-9_:]*)
// or, without colons, a label name ([a-zA-Z_][a-zA-Z0-9_]*).
func validName(s string, colon bool) bool {
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(colon && r == ':') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return s != ""
}

// unescapeHelp reverses HELP text's escapes, `\\` and `\n`; it reports
// false on any other escape or a trailing backslash.
func unescapeHelp(s string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i++; i == len(s) || (s[i] != '\\' && s[i] != 'n') {
			return "", false
		}
		if s[i] == 'n' {
			b.WriteByte('\n')
		} else {
			b.WriteByte('\\')
		}
	}
	return b.String(), true
}
