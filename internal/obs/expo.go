package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteText renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered: families
// by name, instances by label values. Histograms emit cumulative
// _bucket{le=...} series plus _sum and _count.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	var families []*family
	for _, name := range sortedKeys(r.families) {
		families = append(families, r.families[name])
	}
	r.mu.RUnlock()

	for _, f := range families {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.instances) == 0 {
		return nil
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, key := range sortedKeys(f.instances) {
		values := splitLabelKey(key, len(f.labels))
		switch m := f.instances[key].(type) {
		case *Counter:
			if err := writeSeries(w, f.name, f.labels, values, "", "", formatUint(m.Value())); err != nil {
				return err
			}
		case *Gauge:
			if err := writeSeries(w, f.name, f.labels, values, "", "", formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			cumulative, total := m.snapshot()
			for i, ub := range m.buckets {
				le := formatFloat(ub)
				if err := writeSeries(w, f.name+"_bucket", f.labels, values, "le", le, formatUint(cumulative[i])); err != nil {
					return err
				}
			}
			if err := writeSeries(w, f.name+"_bucket", f.labels, values, "le", "+Inf", formatUint(total)); err != nil {
				return err
			}
			if err := writeSeries(w, f.name+"_sum", f.labels, values, "", "", formatFloat(m.Sum())); err != nil {
				return err
			}
			if err := writeSeries(w, f.name+"_count", f.labels, values, "", "", formatUint(m.Count())); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries emits one sample line. extraName/extraValue append a
// trailing label (the histogram "le" bound) when extraName is non-empty.
func writeSeries(w io.Writer, name string, labels, values []string, extraName, extraValue, rendered string) error {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 || extraName != "" {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(values[i]))
			sb.WriteByte('"')
		}
		if extraName != "" {
			if len(labels) > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(extraName)
			sb.WriteString(`="`)
			sb.WriteString(extraValue)
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(rendered)
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
