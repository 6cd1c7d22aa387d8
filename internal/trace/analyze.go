package trace

import (
	"encoding/json"
	"io"
	"sort"

	"lobster/internal/telemetry"
)

// This file is the offline half of the tracing layer: it rebuilds span
// trees from a JSONL event log, attributes time to the paper's Fig 8
// segments, computes per-task critical paths, and ranks attribute
// values ("one chirp server", "cache miss") by how much segment time
// they account for. The lobster-trace CLI is a thin printer over it.

// Segments lists the canonical Fig 8 accounting buckets in display
// order. "overhead" absorbs structural time no stage claims (queue
// wait inside the task span, span gaps, env_init).
var Segments = []string{
	"submit", "dispatch", "stage_in", "setup", "execute", "stage_out", "merge", "overhead",
}

// SegmentOf maps a span name to its canonical segment. The mapping
// mirrors core's wrapper accounting: software_setup bills to setup and
// conditions data to stage_in. Unknown names inherit their parent's
// segment, so a chirp transfer under a stage_in span stays stage-in
// time.
func SegmentOf(name string) (string, bool) {
	switch name {
	case "submit":
		return "submit", true
	case "dispatch":
		return "dispatch", true
	case "stage_in", "conditions":
		return "stage_in", true
	case "setup", "software_setup":
		return "setup", true
	case "execute":
		return "execute", true
	case "stage_out":
		return "stage_out", true
	case "merge":
		return "merge", true
	case "env_init":
		return "overhead", true
	}
	return "", false
}

// Node is one span in a reconstructed tree. Segment is resolved during
// tree building (own mapping, else inherited from the parent).
type Node struct {
	Record
	Segment  string
	Children []*Node
}

// Dur returns the span duration, clamped non-negative.
func (n *Node) Dur() float64 {
	d := n.End - n.Start
	if d < 0 {
		return 0
	}
	return d
}

// Tree is one trace: all spans sharing a trace ID, rooted at the
// parentless span that starts earliest. Spans whose parent never made
// it into the log (or that would form a cycle) are grafted under the
// root and counted in Orphans — analysis degrades, it never fails.
type Tree struct {
	TraceID string
	Root    *Node
	Spans   int
	Orphans int
}

// Start is when the trace began (its root span's start); Dur is how long
// the root span ran.
func (t *Tree) Start() float64 { return t.Root.Start }
func (t *Tree) Dur() float64   { return t.Root.Dur() }

// ReadRecords decodes trace records from a JSONL event stream, ignoring
// every other event type. Records that fail to decode are skipped.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	err := telemetry.ReadEvents(r, func(ev telemetry.Event) error {
		if ev.Type != EventType {
			return nil
		}
		var rec Record
		if json.Unmarshal(ev.Data, &rec) == nil && rec.Span != "" {
			recs = append(recs, rec)
		}
		return nil
	})
	return recs, err
}

// ReadRecordsPath reads trace records from an event log on disk,
// including any rotated segments next to it (path.000001, …) in write
// order.
func ReadRecordsPath(path string) ([]Record, error) {
	var recs []Record
	err := telemetry.ReadEventsPath(path, func(ev telemetry.Event) error {
		if ev.Type != EventType {
			return nil
		}
		var rec Record
		if json.Unmarshal(ev.Data, &rec) == nil && rec.Span != "" {
			recs = append(recs, rec)
		}
		return nil
	})
	return recs, err
}

// BuildTrees groups records by trace ID and reassembles each group into
// a tree, ordered by root start time (ties by trace ID). Children are
// ordered by start time.
func BuildTrees(recs []Record) []*Tree {
	byTrace := make(map[string][]*Node)
	for i := range recs {
		r := &recs[i]
		byTrace[r.Trace] = append(byTrace[r.Trace], &Node{Record: *r})
	}
	trees := make([]*Tree, 0, len(byTrace))
	for id, nodes := range byTrace {
		trees = append(trees, buildTree(id, nodes))
	}
	sort.Slice(trees, func(i, j int) bool {
		if trees[i].Start() != trees[j].Start() {
			return trees[i].Start() < trees[j].Start()
		}
		return trees[i].TraceID < trees[j].TraceID
	})
	return trees
}

// buildTree links one trace's nodes parent→child. Any node that cannot
// reach a root (missing parent, cycle) is grafted under the root.
func buildTree(id string, nodes []*Node) *Tree {
	t := &Tree{TraceID: id, Spans: len(nodes)}
	byID := make(map[string]*Node, len(nodes))
	for _, n := range nodes {
		// Last record wins on a duplicated span ID; duplicates only
		// arise from replayed logs.
		byID[n.Span] = n
	}

	// Root: the earliest-starting span with no resolvable parent; if
	// every span has a parent (a cycle), the earliest span overall.
	var root *Node
	for _, n := range nodes {
		if n.Parent != "" && byID[n.Parent] != nil && byID[n.Parent] != n {
			continue
		}
		if root == nil || n.Start < root.Start || (n.Start == root.Start && n.Span < root.Span) {
			root = n
		}
	}
	if root == nil {
		for _, n := range nodes {
			if root == nil || n.Start < root.Start || (n.Start == root.Start && n.Span < root.Span) {
				root = n
			}
		}
		t.Orphans++ // its parent edge is severed below
	}
	t.Root = root

	// Attach children for nodes reachable from the root; graft the rest
	// (orphans, cycles) directly under the root.
	attached := map[*Node]bool{root: true}
	progress := true
	for progress {
		progress = false
		for _, n := range nodes {
			if attached[n] || n == root {
				continue
			}
			p := byID[n.Parent]
			if p != nil && attached[p] && p != n {
				p.Children = append(p.Children, n)
				attached[n] = true
				progress = true
			}
		}
	}
	for _, n := range nodes {
		if !attached[n] {
			root.Children = append(root.Children, n)
			attached[n] = true
			t.Orphans++
		}
	}

	resolveSegments(root, "overhead")
	sortChildren(root)
	return t
}

func resolveSegments(n *Node, inherited string) {
	seg, ok := SegmentOf(n.Name)
	if !ok {
		seg = inherited
	}
	n.Segment = seg
	for _, c := range n.Children {
		resolveSegments(c, seg)
	}
}

func sortChildren(n *Node) {
	sort.Slice(n.Children, func(i, j int) bool {
		if n.Children[i].Start != n.Children[j].Start {
			return n.Children[i].Start < n.Children[j].Start
		}
		return n.Children[i].Span < n.Children[j].Span
	})
	for _, c := range n.Children {
		sortChildren(c)
	}
}

// Breakdown is the Fig 8 accounting: per-segment totals of span
// self-time (span duration minus the union of its children's
// intervals), summed across tasks. Because a stage span's subtree
// self-times always sum back to the stage span's own duration, these
// totals reconcile with the lobster_task_stage_seconds histograms.
type Breakdown struct {
	Seconds map[string]float64
	Tasks   int
	Spans   int
	Orphans int
	Total   float64
}

// Analyze computes the per-segment breakdown over a set of trees.
func Analyze(trees []*Tree) Breakdown {
	b := Breakdown{Seconds: make(map[string]float64, len(Segments))}
	for _, t := range trees {
		b.Tasks++
		b.Spans += t.Spans
		b.Orphans += t.Orphans
		addSelfTimes(t.Root, &b)
	}
	for _, v := range b.Seconds {
		b.Total += v
	}
	return b
}

func addSelfTimes(n *Node, b *Breakdown) {
	b.Seconds[n.Segment] += selfTime(n)
	for _, c := range n.Children {
		addSelfTimes(c, b)
	}
}

// selfTime is n's duration minus the union of its children's intervals,
// clipped to n. Children sorted by start make the union a single sweep.
func selfTime(n *Node) float64 {
	self := n.Dur()
	cursor := n.Start
	for _, c := range n.Children {
		lo, hi := c.Start, c.End
		if lo < cursor {
			lo = cursor
		}
		if hi > n.End {
			hi = n.End
		}
		if hi > lo {
			self -= hi - lo
			cursor = hi
		} else if c.End > cursor {
			cursor = c.End
		}
	}
	if self < 0 {
		return 0
	}
	return self
}

// PathStep is one node on a critical path and the gating time it
// contributes itself (time on the path not explained by a deeper span).
type PathStep struct {
	Node    *Node
	Seconds float64
}

// CriticalPath walks backwards from the root's end, at each level
// descending into the child that gates completion, and returns the
// chain root-first. The sum of step seconds equals the root duration.
func CriticalPath(root *Node) []PathStep {
	var steps []PathStep
	critInto(root, &steps)
	return steps
}

func critInto(n *Node, steps *[]PathStep) {
	*steps = append(*steps, PathStep{Node: n})
	pos := len(*steps) - 1
	self := 0.0
	t := n.End
	// Children by end time, latest first: each in turn gates the
	// interval back to its own start.
	kids := append([]*Node(nil), n.Children...)
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].End != kids[j].End {
			return kids[i].End > kids[j].End
		}
		return kids[i].Span < kids[j].Span
	})
	for _, c := range kids {
		if t <= n.Start {
			break
		}
		if c.Start >= t {
			continue // shadowed by a later gating child
		}
		end := c.End
		if end > t {
			end = t
		}
		if end <= c.Start {
			continue // zero-length after clipping
		}
		self += t - end
		critInto(c, steps)
		t = c.Start
	}
	if t > n.Start {
		self += t - n.Start
	}
	(*steps)[pos].Seconds = self
}

// CriticalBreakdown aggregates critical-path time per segment across
// all trees: where end-to-end task latency actually goes, as opposed to
// where total (parallel-inclusive) time goes.
func CriticalBreakdown(trees []*Tree) map[string]float64 {
	out := make(map[string]float64, len(Segments))
	for _, t := range trees {
		for _, step := range CriticalPath(t.Root) {
			out[step.Node.Segment] += step.Seconds
		}
	}
	return out
}

// Offender attributes segment time to one span attribute value — e.g.
// 38% of stage_in seconds carry server=se03:9094.
type Offender struct {
	Segment string
	Attr    string // "key=value"
	Seconds float64
	Count   int
	Share   float64 // of the segment's breakdown total; 0 if unknown
}

// Offenders ranks (segment, attribute) pairs by span self-time. A
// span's self-time counts toward each of its attributes, answering "how
// much of this segment's time was spent in spans carrying this value".
// Using self-time (matching Breakdown) keeps shares true fractions: a
// parent's time is never double-billed to both its own attributes and
// its children's.
func Offenders(trees []*Tree, b Breakdown, topN int) []Offender {
	type key struct{ seg, attr string }
	sums := make(map[key]*Offender)
	var visit func(n *Node)
	visit = func(n *Node) {
		d := selfTime(n)
		for k, v := range n.Attrs {
			kk := key{n.Segment, k + "=" + v}
			o := sums[kk]
			if o == nil {
				o = &Offender{Segment: kk.seg, Attr: kk.attr}
				sums[kk] = o
			}
			o.Seconds += d
			o.Count++
		}
		for _, c := range n.Children {
			visit(c)
		}
	}
	for _, t := range trees {
		visit(t.Root)
	}
	out := make([]Offender, 0, len(sums))
	for _, o := range sums {
		if tot := b.Seconds[o.Segment]; tot > 0 {
			o.Share = o.Seconds / tot
		}
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		if out[i].Segment != out[j].Segment {
			return out[i].Segment < out[j].Segment
		}
		return out[i].Attr < out[j].Attr
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}
