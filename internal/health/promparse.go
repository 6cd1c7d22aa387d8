// Package health evaluates a declarative rule set of derived health
// signals with hysteresis (stuck tasks, chirp-pool exhaustion) over the
// process's own telemetry registry, read through its /metrics page. A Hub
// emits each transition as a typed "alert" event onto the run's JSONL
// event log and, on anomaly, writes the process's goroutine and heap
// profiles into a bundle next to it.
//
// The hub reads time from the registry's clock: the wall clock in a run,
// a stepped clock in tests. ParseMetrics is also the one reader of a
// /metrics page that `lobster -top` draws.
package health

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"lobster/internal/telemetry"
)

// Label is one name="value" pair of a series, the writer's own type.
type Label = telemetry.Label

// Sample is one exposition line: a series name (including any _bucket,
// _sum, or _count suffix), its labels in written order, and the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Family is one named metric with its metadata and samples. Histogram
// families hold their _bucket/_sum/_count samples verbatim.
type Family struct {
	Name    string
	Help    string
	Type    string // "counter", "gauge", "histogram"
	Samples []Sample
}

// Page is one parsed /metrics exposition.
type Page struct {
	Families []*Family
	byName   map[string]*Family
}

// baseFamily maps a sample name onto its owning family: histogram samples
// carry _bucket/_sum/_count suffixes over the family's base name.
func (p *Page) baseFamily(name string) *Family {
	if f := p.byName[name]; f != nil {
		return f
	}
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if f := p.byName[base]; f != nil && f.Type == "histogram" {
				return f
			}
		}
	}
	return nil
}

// ParseMetrics parses a Prometheus text-exposition page (format 0.0.4,
// the dialect internal/telemetry emits): HELP and TYPE comments, then
// series lines `name{label="value",...} value`. Unknown comment lines are
// skipped; a sample with no preceding TYPE gets an implicit untyped
// gauge family. Malformed series lines abort with their line number.
func ParseMetrics(r io.Reader) (*Page, error) {
	p := &Page{byName: make(map[string]*Family)}
	sc := bufio.NewScanner(r)
	// The scanner starts at 4 KiB and doubles only for a longer line: a
	// page is a few KiB, and the hub parses one per tick.
	sc.Buffer(nil, 16<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := p.parseComment(line); err != nil {
				return nil, fmt.Errorf("health: metrics line %d: %w", lineNo, err)
			}
			continue
		}
		if err := p.parseSample(line); err != nil {
			return nil, fmt.Errorf("health: metrics line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("health: reading metrics: %w", err)
	}
	return p, nil
}

// family returns (creating if needed) the family for name.
func (p *Page) family(name string) *Family {
	if f := p.byName[name]; f != nil {
		return f
	}
	f := &Family{Name: name, Type: "gauge"}
	p.byName[name] = f
	p.Families = append(p.Families, f)
	return f
}

func (p *Page) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		help := ""
		if len(fields) == 4 {
			help = unescapeHelp(fields[3])
		}
		p.family(fields[2]).Help = help
	case "TYPE":
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
			p.family(fields[2]).Type = fields[3]
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

func (p *Page) parseSample(line string) error {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return fmt.Errorf("malformed series line %q", line)
	} else {
		s.Name = rest[:i]
		if s.Name == "" {
			return fmt.Errorf("empty series name in %q", line)
		}
		if rest[i] == '{' {
			var err error
			s.Labels, rest, err = parseLabels(rest[i+1:])
			if err != nil {
				return fmt.Errorf("%w in %q", err, line)
			}
		} else {
			rest = rest[i:]
		}
	}
	rest = strings.TrimLeft(rest, " ")
	// The value token runs to the next space (a timestamp may follow; the
	// emitter never writes one, but tolerate it on ingest).
	tok := rest
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		tok = rest[:i]
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return fmt.Errorf("bad value %q: %w", tok, err)
	}
	s.Value = v
	f := p.baseFamily(s.Name)
	if f == nil {
		f = p.family(s.Name)
	}
	f.Samples = append(f.Samples, s)
	return nil
}

// parseLabels consumes `name="value",...}` returning the labels and the
// remainder after the closing brace.
func parseLabels(rest string) ([]Label, string, error) {
	var labels []Label
	for {
		rest = strings.TrimLeft(rest, ",")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || len(rest) < eq+2 || rest[eq+1] != '"' {
			return nil, "", fmt.Errorf("malformed label pair")
		}
		name := rest[:eq]
		val, rem, err := parseQuoted(rest[eq+1:])
		if err != nil {
			return nil, "", err
		}
		labels = append(labels, Label{Name: name, Value: val})
		rest = rem
	}
}

// parseQuoted consumes a `"..."` token with \\, \" and \n escapes,
// returning the unescaped value and the remainder.
func parseQuoted(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", "", fmt.Errorf("malformed label value")
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("truncated escape in label value")
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				// Unknown escape: keep both bytes, like Prometheus does.
				b.WriteByte('\\')
				b.WriteByte(s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func unescapeHelp(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Series is one sample of a page: a metric name, its labels and the
// value. Type carries the family type; Family names the family the
// sample was written under (a histogram's _sum sits under its base name).
type Series struct {
	Name   string
	Labels map[string]string
	Value  float64
	Type   string
	Family string
}

// Label returns the named label, or "".
func (s *Series) Label(name string) string {
	if s.Labels == nil {
		return ""
	}
	return s.Labels[name]
}

// Series flattens the page into `lobster -top`'s representation: one
// Series per sample, labels as a map, each naming the family it was
// written under.
func (p *Page) Series() []Series {
	n := 0
	for _, f := range p.Families {
		n += len(f.Samples)
	}
	out := make([]Series, 0, n)
	for _, f := range p.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			sr := Series{Name: s.Name, Value: s.Value, Type: f.Type, Family: f.Name}
			if len(s.Labels) > 0 {
				sr.Labels = make(map[string]string, len(s.Labels))
				for _, l := range s.Labels {
					sr.Labels[l.Name] = l.Value
				}
			}
			out = append(out, sr)
		}
	}
	return out
}
