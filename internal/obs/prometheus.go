// Prometheus text-format exposition (version 0.0.4) over a gathered
// registry: one `# TYPE` line per metric name, escaped label values,
// cumulative `_bucket{le=...}` series plus `_sum`/`_count` for
// histograms. The encoder works from the immutable []Sample snapshot,
// so writing an exposition never holds registry or kernel locks.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the MIME type of the exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// sanitizeName maps an arbitrary metric or label name into the
// Prometheus grammar [a-zA-Z_:][a-zA-Z0-9_:]* by replacing every
// illegal rune with '_'.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName maps an arbitrary label name into the grammar
// [a-zA-Z_][a-zA-Z0-9_]*: a metric name's, without the colon.
func sanitizeLabelName(s string) string { return strings.ReplaceAll(sanitizeName(s), ":", "_") }

// escapeLabelValue escapes backslash, double-quote and newline per the
// exposition grammar.
func escapeLabelValue(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline (quotes are legal in HELP).
func escapeHelp(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatValue renders a float the way Prometheus clients expect:
// shortest round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

func writeLabels(w io.Writer, labels []Label, extra ...Label) error {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, l := range all {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s=\"%s\"", sanitizeLabelName(l.Key), escapeLabelValue(l.Value)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}

func kindName(k Kind) string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// WritePrometheus gathers the registry and writes the full exposition.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Gather()

	// Group by sanitized metric name, preserving the gathered (sorted)
	// order within each name, then emit names in sorted order so the
	// output is deterministic and each TYPE header appears exactly once.
	byName := map[string][]Sample{}
	var names []string
	for _, s := range samples {
		n := sanitizeName(s.Name)
		if _, ok := byName[n]; !ok {
			names = append(names, n)
		}
		byName[n] = append(byName[n], s)
	}
	sort.Strings(names)

	for _, n := range names {
		group := byName[n]
		if help := r.Help(group[0].Name); help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", n, escapeHelp(help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, kindName(group[0].Kind)); err != nil {
			return err
		}
		for _, s := range group {
			if s.Kind == KindHistogram {
				if err := writeHistogram(w, n, s); err != nil {
					return err
				}
				continue
			}
			if _, err := io.WriteString(w, n); err != nil {
				return err
			}
			if err := writeLabels(w, s.Labels); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, " %s\n", formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s Sample) error {
	for i, bound := range s.Bounds {
		if _, err := io.WriteString(w, name+"_bucket"); err != nil {
			return err
		}
		if err := writeLabels(w, s.Labels, L("le", formatValue(bound))); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, " %d\n", s.Cum[i]); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, name+"_bucket"); err != nil {
		return err
	}
	if err := writeLabels(w, s.Labels, L("le", "+Inf")); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %d\n", s.Count); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name+"_sum"); err != nil {
		return err
	}
	if err := writeLabels(w, s.Labels); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, " %s\n", formatValue(s.Sum)); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name+"_count"); err != nil {
		return err
	}
	if err := writeLabels(w, s.Labels); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, " %d\n", s.Count)
	return err
}
