// Package tsdb is an embedded time-series store: the fleet health hub
// appends every merged scrape into it, turning the live cluster view
// into replayable history. Samples compress Gorilla-style (delta-of-
// delta timestamps, XOR values) into fixed-size blocks per series;
// series are indexed by metric name plus label set; raw samples age out
// on a time-windowed retention with a coarser-resolution rollup ring
// preserving the long tail; sealed blocks optionally persist as
// seglog segments next to the JSONL event log, so a restarted
// hub reopens its history and the paper's ramp figures can be replotted
// from any past run.
package tsdb

import (
	"math"
	"sort"
	"sync"

	"lobster/internal/seglog"
	"lobster/internal/telemetry"
)

// Config parameterises a Store. The zero value gets sane defaults.
type Config struct {
	// Retention is how many seconds of raw samples are kept (default
	// 24 h). Sealed blocks wholly older than the newest sample minus
	// Retention are dropped (their buffers recycled) after folding into
	// the rollup ring at append time.
	Retention float64

	// RollupStep is the coarse resolution in seconds (default 300):
	// every raw sample also accumulates into a per-series bucket of
	// this width, and finished buckets enter a fixed ring that outlives
	// raw retention.
	RollupStep float64

	// RollupPoints is the ring capacity per series (default 2048 —
	// about a week at the default step).
	RollupPoints int

	// BlockBytes is the compressed block capacity (default 1024).
	BlockBytes int

	// Dir, when non-empty, persists sealed blocks as seglog segment
	// files in this directory (created if needed).
	Dir string

	// Log, when set, receives a typed "tsdb_segment" event each time a
	// segment seals, interleaving the store's persistence markers
	// with the task/alert event stream monitor.ReplayLog replays.
	Log *telemetry.EventLog
}

func (c *Config) defaults() {
	if c.Retention <= 0 {
		c.Retention = 24 * 3600
	}
	if c.RollupStep <= 0 {
		c.RollupStep = 300
	}
	if c.RollupPoints <= 0 {
		c.RollupPoints = 2048
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 1024
	}
}

// Sample is one decoded point.
type Sample struct {
	T float64 // seconds
	V float64
}

// sealedBlock is a finished compressed run.
type sealedBlock struct {
	buf           []byte
	n             int
	tFirst, tLast int64 // ms
}

// rollPoint is one finished coarse bucket.
type rollPoint struct {
	t     int64 // bucket start, ms
	sum   float64
	min   float64
	max   float64
	last  float64
	count int64
}

// memSeries is one labelled series' in-memory state.
type memSeries struct {
	name   string
	labels map[string]string
	key    string

	active  block
	sealed  []sealedBlock
	samples int64

	// rollup ring
	ring      []rollPoint
	ringStart int
	ringLen   int
	bucket    rollPoint
	bucketSet bool
}

// Store is the embedded time-series database. Safe for concurrent use.
type Store struct {
	cfg Config

	mu      sync.RWMutex
	series  map[string]*memSeries
	list    []*memSeries
	keyBuf  []byte
	kvBuf   []string
	free    [][]byte // recycled block buffers
	samples int64    // total appended
	minMs   int64
	maxMs   int64
	log     *seglog.Log // nil for an in-memory store
	scratch []byte      // writeBlock's record encoding, reused
}

// New creates an in-memory store (cfg.Dir empty) without touching disk.
// Use Open for a persistent store.
func New(cfg Config) *Store {
	cfg.defaults()
	return &Store{
		cfg:    cfg,
		series: make(map[string]*memSeries, 64),
		minMs:  math.MaxInt64,
		maxMs:  math.MinInt64,
	}
}

// ms converts store-time seconds to integer milliseconds.
func ms(t float64) int64 { return int64(math.Round(t * 1000)) }

// sec converts back.
func sec(t int64) float64 { return float64(t) / 1000 }

// seriesKey builds the canonical key (name, then sorted label pairs)
// into s.keyBuf. Caller holds s.mu.
func (s *Store) seriesKey(name string, labels map[string]string) []byte {
	b := append(s.keyBuf[:0], name...)
	if len(labels) > 0 {
		kv := s.kvBuf[:0]
		for k := range labels {
			kv = append(kv, k)
		}
		sort.Strings(kv)
		for _, k := range kv {
			b = append(b, 0)
			b = append(b, k...)
			b = append(b, 1)
			b = append(b, labels[k]...)
		}
		s.kvBuf = kv
	}
	s.keyBuf = b
	return b
}

// Append records one sample for the series identified by name+labels.
// Appends are expected in non-decreasing time order per series; the
// codec tolerates regressions but queries assume order. Steady-state
// appends (known series, block not full) allocate nothing.
func (s *Store) Append(name string, labels map[string]string, t, v float64) {
	if s == nil {
		return
	}
	tm := ms(t)
	s.mu.Lock()
	key := s.seriesKey(name, labels)
	se := s.series[string(key)]
	if se == nil {
		se = s.newSeries(name, labels, string(key))
	}
	if !se.active.room() {
		s.seal(se)
	}
	se.active.append(tm, v)
	se.samples++
	s.samples++
	if tm < s.minMs {
		s.minMs = tm
	}
	if tm > s.maxMs {
		s.maxMs = tm
	}
	s.rollup(se, tm, v)
	s.mu.Unlock()
}

// newSeries registers a fresh series. Caller holds s.mu.
func (s *Store) newSeries(name string, labels map[string]string, key string) *memSeries {
	lcopy := make(map[string]string, len(labels))
	for k, v := range labels {
		lcopy[k] = v
	}
	se := &memSeries{
		name:   name,
		labels: lcopy,
		key:    key,
		ring:   make([]rollPoint, s.cfg.RollupPoints),
	}
	se.active.reset(s.blockBuf())
	s.series[key] = se
	s.list = append(s.list, se)
	return se
}

// blockBuf hands out a block buffer, recycling retired ones.
func (s *Store) blockBuf() []byte {
	if n := len(s.free); n > 0 {
		buf := s.free[n-1]
		s.free = s.free[:n-1]
		return buf
	}
	return make([]byte, 0, s.cfg.BlockBytes)
}

// seal finishes the series' active block, persists it, enforces
// retention, and re-arms the active block. Caller holds s.mu.
func (s *Store) seal(se *memSeries) {
	b := &se.active
	if b.n == 0 {
		return
	}
	payload := b.bytes()
	if s.log != nil {
		s.writeBlock(se.key, b.n, b.tFirst, b.tLast, payload)
	}
	se.sealed = append(se.sealed, sealedBlock{buf: payload, n: b.n, tFirst: b.tFirst, tLast: b.tLast})
	// Retention: drop sealed blocks wholly older than the cutoff. Their
	// coarse history already lives in the rollup ring.
	cutoff := b.tLast - ms(s.cfg.Retention)
	drop := 0
	for drop < len(se.sealed)-1 && se.sealed[drop].tLast < cutoff {
		drop++
	}
	if drop > 0 {
		for i := 0; i < drop; i++ {
			if buf := se.sealed[i].buf; cap(buf) == s.cfg.BlockBytes && len(s.free) < 64 {
				s.free = append(s.free, buf[:0])
			}
		}
		se.sealed = append(se.sealed[:0], se.sealed[drop:]...)
		s.recomputeMin()
	}
	b.reset(s.blockBuf())
}

// oldestMs returns the series' oldest still-held timestamp in ms: the
// older of the rollup ring's head and the first raw sample (the ring
// head can sit *after* raw coverage when retention hasn't caught up,
// and before it once it has). MaxInt64 for an empty series. Caller
// holds s.mu.
func (se *memSeries) oldestMs() int64 {
	oldest := int64(math.MaxInt64)
	if se.ringLen > 0 {
		oldest = se.ring[se.ringStart].t
	} else if se.bucketSet {
		oldest = se.bucket.t
	}
	if len(se.sealed) > 0 {
		if t := se.sealed[0].tFirst; t < oldest {
			oldest = t
		}
	} else if se.active.n > 0 {
		if t := se.active.tFirst; t < oldest {
			oldest = t
		}
	}
	return oldest
}

// recomputeMin re-derives the store-wide oldest timestamp after
// retention drops blocks, so Stats().MinTime tracks data the store
// still holds rather than the oldest sample ever appended. Caller
// holds s.mu.
func (s *Store) recomputeMin() {
	min := int64(math.MaxInt64)
	for _, se := range s.list {
		if o := se.oldestMs(); o < min {
			min = o
		}
	}
	s.minMs = min
}

// rollup folds the sample into the series' coarse bucket, pushing the
// finished bucket into the ring on a boundary crossing. Caller holds
// s.mu.
func (s *Store) rollup(se *memSeries, tm int64, v float64) {
	step := ms(s.cfg.RollupStep)
	bt := tm - mod(tm, step)
	if !se.bucketSet {
		se.bucket = rollPoint{t: bt, sum: v, min: v, max: v, last: v, count: 1}
		se.bucketSet = true
		return
	}
	if bt == se.bucket.t {
		p := &se.bucket
		p.sum += v
		p.count++
		p.last = v
		if v < p.min {
			p.min = v
		}
		if v > p.max {
			p.max = v
		}
		return
	}
	// Boundary crossed: push the finished bucket.
	i := (se.ringStart + se.ringLen) % len(se.ring)
	se.ring[i] = se.bucket
	if se.ringLen < len(se.ring) {
		se.ringLen++
	} else {
		se.ringStart = (se.ringStart + 1) % len(se.ring)
	}
	se.bucket = rollPoint{t: bt, sum: v, min: v, max: v, last: v, count: 1}
}

// mod is a floor modulo for possibly-negative timestamps.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Stats summarises the store.
type Stats struct {
	Series       int
	Samples      int64 // total ever appended
	Bytes        int64 // compressed bytes held (sealed + active)
	SealedBlocks int
	MinTime      float64 // oldest still-held sample (retention advances it)
	MaxTime      float64
}

// Stats snapshots store-wide counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Series: len(s.list), Samples: s.samples}
	for _, se := range s.list {
		st.Bytes += int64((se.active.w.n + 7) / 8)
		for _, sb := range se.sealed {
			st.Bytes += int64(len(sb.buf))
			st.SealedBlocks++
		}
	}
	if s.samples > 0 {
		st.MinTime, st.MaxTime = sec(s.minMs), sec(s.maxMs)
	}
	return st
}

// MaxTime returns the newest sample time, or 0 on an empty store.
func (s *Store) MaxTime() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.samples == 0 {
		return 0
	}
	return sec(s.maxMs)
}

// matches reports whether the series carries every (k, v) of match.
func (se *memSeries) matches(name string, match map[string]string) bool {
	if se.name != name {
		return false
	}
	for k, v := range match {
		if se.labels[k] != v {
			return false
		}
	}
	return true
}

// appendRange decodes the series' samples in [fromMs, toMs] into out,
// oldest first: rollup points older than raw coverage, then sealed
// blocks, then the active block. Caller holds s.mu (read).
func (se *memSeries) appendRange(out []Sample, fromMs, toMs int64, rollStep int64) []Sample {
	rawFirst := int64(math.MaxInt64)
	if se.active.n > 0 {
		rawFirst = se.active.tFirst
	}
	if len(se.sealed) > 0 {
		rawFirst = se.sealed[0].tFirst
	}
	// Pre-size from block counts so the decode loop never regrows out —
	// the dominant cost of large range queries is otherwise memmove.
	need := 0
	for i := range se.sealed {
		if sb := &se.sealed[i]; sb.tLast >= fromMs && sb.tFirst <= toMs {
			need += sb.n
		}
	}
	if se.active.n > 0 && se.active.tLast >= fromMs && se.active.tFirst <= toMs {
		need += se.active.n
	}
	if cap(out)-len(out) < need {
		grown := make([]Sample, len(out), len(out)+need+se.ringLen)
		copy(grown, out)
		out = grown
	}
	// Coarse prefix: finished rollup buckets wholly before raw coverage
	// (a bucket overlapping retained raw samples would double-count
	// them), reported as bucket averages at the bucket start.
	for i := 0; i < se.ringLen; i++ {
		p := &se.ring[(se.ringStart+i)%len(se.ring)]
		if p.t+rollStep > rawFirst || p.t > toMs {
			continue
		}
		if p.t+rollStep <= fromMs {
			continue
		}
		out = append(out, Sample{T: sec(p.t), V: p.sum / float64(p.count)})
	}
	decode := func(buf []byte, n int, tFirst, tLast int64) {
		if n == 0 || tLast < fromMs || tFirst > toMs {
			return
		}
		it := newBlockIter(buf, n)
		for {
			t, v, ok := it.next()
			if !ok {
				return
			}
			if t > toMs {
				return
			}
			if t >= fromMs {
				out = append(out, Sample{T: sec(t), V: v})
			}
		}
	}
	for i := range se.sealed {
		sb := &se.sealed[i]
		decode(sb.buf, sb.n, sb.tFirst, sb.tLast)
	}
	if se.active.n > 0 {
		decode(se.active.bytes(), se.active.n, se.active.tFirst, se.active.tLast)
	}
	return out
}

// SeriesResult is one series' samples from a select or query.
type SeriesResult struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Samples []Sample          `json:"-"`
}

// Select returns the raw samples of every series matching name and the
// label matchers over [from, to] seconds, in a stable (label-sorted)
// series order.
func (s *Store) Select(name string, match map[string]string, from, to float64) []SeriesResult {
	if s == nil {
		return nil
	}
	fromMs, toMs := ms(from), ms(to)
	rollStep := ms(s.cfg.RollupStep)
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []SeriesResult
	for _, se := range s.list {
		if !se.matches(name, match) {
			continue
		}
		samples := se.appendRange(nil, fromMs, toMs, rollStep)
		if len(samples) == 0 {
			continue
		}
		out = append(out, SeriesResult{Name: se.name, Labels: se.labels, Samples: samples})
	}
	sort.Slice(out, func(i, j int) bool { return labelKey(out[i].Labels) < labelKey(out[j].Labels) })
	return out
}

// Tail returns the last n samples of the exactly-labelled series (nil
// when unknown) — the sparkline path in `lobster -top -watch`.
func (s *Store) Tail(name string, labels map[string]string, n int) []Sample {
	if s == nil || n <= 0 {
		return nil
	}
	s.mu.Lock() // seriesKey uses the shared scratch buffer
	key := s.seriesKey(name, labels)
	se := s.series[string(key)]
	if se == nil {
		s.mu.Unlock()
		return nil
	}
	samples := se.appendRange(nil, math.MinInt64+1, math.MaxInt64-1, ms(s.cfg.RollupStep))
	s.mu.Unlock()
	if len(samples) > n {
		samples = samples[len(samples)-n:]
	}
	return samples
}

// SumOver returns the matching series summed per timestamp over
// [from, to] seconds, sorted by time — the multi-tick window the health
// rules evaluate rate and stall expressions against.
func (s *Store) SumOver(name string, match map[string]string, from, to float64) []Sample {
	sel := s.Select(name, match, from, to)
	if len(sel) == 0 {
		return nil
	}
	if len(sel) == 1 {
		return sel[0].Samples
	}
	sums := make(map[int64]float64, len(sel[0].Samples))
	for _, sr := range sel {
		for _, p := range sr.Samples {
			sums[ms(p.T)] += p.V
		}
	}
	out := make([]Sample, 0, len(sums))
	for t, v := range sums {
		out = append(out, Sample{T: sec(t), V: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// labelKey renders labels sorted, for stable result ordering.
func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	kv := make([]string, 0, len(labels))
	for k := range labels {
		kv = append(kv, k)
	}
	sort.Strings(kv)
	b := make([]byte, 0, 64)
	for _, k := range kv {
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, labels[k]...)
		b = append(b, ',')
	}
	return string(b)
}

// Flush seals and persists every active block (partial blocks included)
// and syncs the live segment, so a clean shutdown loses nothing.
func (s *Store) Flush() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, se := range s.list {
		if se.active.n > 0 {
			s.seal(se)
		}
	}
	if s.log != nil {
		return s.log.Sync()
	}
	return nil
}

// Close flushes and closes the segment log.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	err := s.Flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		if cerr := s.log.Close(); err == nil {
			err = cerr
		}
		s.log = nil
	}
	return err
}
