// Package health is Lobster's fleet-level observability plane: a
// monitoring hub that scrapes every component's /metrics endpoint, merges
// the per-process Prometheus series into cluster-wide aggregates with
// per-component labels, evaluates a declarative rule set of derived
// health signals with hysteresis (eviction spikes, stuck tasks,
// chirp-pool exhaustion, ramp stalls), emits typed "alert"
// events onto the shared JSONL event log, and — on anomaly — captures
// pprof profile bundles from the affected endpoints so a storm leaves a
// self-contained post-mortem next to the event log.
//
// The hub runs on a pluggable clock, so the identical detectors evaluate
// a live deployment on the wall clock and a simulated paper-scale ramp
// on the discrete-event clock (internal/sim drives Tick from simulated
// time; golden tests pin which alerts fire and when).
package health

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Label is one name="value" pair of a series.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line: a series name (including any _bucket,
// _sum, or _count suffix), its labels in written order, and the value.
// raw preserves the exact value token so a parsed page re-renders
// byte-identically (the round-trip property the parser is tested on).
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
	raw    string
}

// Label returns the value of the named label, or "".
func (s *Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
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

// Family returns the named family, or nil.
func (p *Page) Family(name string) *Family {
	if p == nil {
		return nil
	}
	return p.byName[name]
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
// the dialect internal/telemetry emits): # HELP and # TYPE comments, then
// series lines `name{label="value",...} value`. Unknown comment lines are
// skipped; a sample with no preceding # TYPE gets an implicit untyped
// gauge family. Malformed series lines abort with their line number.
func ParseMetrics(r io.Reader) (*Page, error) {
	p := &Page{byName: make(map[string]*Family)}
	sc := bufio.NewScanner(r)
	// The scanner starts at 4 KiB and doubles only for a longer line: a
	// page is a few KiB, and the hub parses one per endpoint per tick.
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
	s.raw = tok
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

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "\"", "\\\"")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// WriteTo re-renders the page in the canonical exposition dialect the
// telemetry registry emits. A page parsed from registry output renders
// byte-identically (the round-trip property test pins this), which is
// what lets the hub archive raw scrapes and re-ingest them later.
func (p *Page) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	for _, f := range p.Families {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, escapeHelp(f.Help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for i := range f.Samples {
			s := &f.Samples[i]
			b.WriteString(s.Name)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for j, l := range s.Labels {
					if j > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabel(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(s.valueToken())
			b.WriteByte('\n')
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Render returns the canonical exposition text.
func (p *Page) Render() string {
	var b strings.Builder
	p.WriteTo(&b)
	return b.String()
}

// valueToken formats the sample's value, preferring the exact token it
// was parsed from.
func (s *Sample) valueToken() string {
	if s.raw != "" {
		return s.raw
	}
	return formatValue(s.Value)
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Series flattens the page into the hub's merge representation: one
// Series per sample, labels as a map. The extra labels (component,
// instance) are appended by the scraper.
func (p *Page) Series() []Series {
	n := 0
	for _, f := range p.Families {
		n += len(f.Samples)
	}
	out := make([]Series, 0, n)
	for _, f := range p.Families {
		for i := range f.Samples {
			s := &f.Samples[i]
			sr := Series{Name: s.Name, Value: s.Value, Type: f.Type}
			if len(s.Labels) > 0 {
				sr.Labels = make(map[string]string, len(s.Labels)+2)
				for _, l := range s.Labels {
					sr.Labels[l.Name] = l.Value
				}
			}
			out = append(out, sr)
		}
	}
	return out
}

// sortLabels orders a label slice by name (used by tests and merge keys).
func sortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
}
