package tsdb

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lobster/internal/telemetry"
)

func TestPersistReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := genSamples(500, 0, 5, func(i int) float64 { return float64(i * 3) })
	fill(s, "c", map[string]string{"inst": "a"}, want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res := s2.Select("c", map[string]string{"inst": "a"}, 0, 1e9)
	if len(res) != 1 {
		t.Fatalf("series after reload: %d", len(res))
	}
	if len(res[0].Samples) != len(want) {
		t.Fatalf("samples after reload: %d want %d", len(res[0].Samples), len(want))
	}
	for i, p := range res[0].Samples {
		if p != want[i] {
			t.Fatalf("sample %d: %v want %v", i, p, want[i])
		}
	}
	if got := s2.Stats().Samples; got != 500 {
		t.Fatalf("stats samples: %d", got)
	}
}

func TestPersistAppendAfterReload(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockBytes: 256})
	fill(s, "c", nil, genSamples(100, 0, 5, func(i int) float64 { return float64(i) }))
	s.Close()

	s2, _ := Open(Config{Dir: dir, BlockBytes: 256})
	fill(s2, "c", nil, genSamples(100, 500, 5, func(i int) float64 { return float64(100 + i) }))
	s2.Close()

	s3, _ := Open(Config{Dir: dir, BlockBytes: 256})
	defer s3.Close()
	res := s3.Select("c", nil, 0, 1e9)
	if len(res) != 1 || len(res[0].Samples) != 200 {
		t.Fatalf("after two generations: %d series, %d samples", len(res), len(res[0].Samples))
	}
	for i, p := range res[0].Samples {
		if p.V != float64(i) {
			t.Fatalf("sample %d: %v", i, p)
		}
	}
}

func TestPersistTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockBytes: 256})
	fill(s, "c", nil, genSamples(300, 0, 5, func(i int) float64 { return float64(i) }))
	s.Close()

	seg := segPath(dir, 1)
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 32 {
		t.Fatalf("segment too small to truncate: %d bytes", len(full))
	}
	// Every truncation point must load without error and yield a prefix
	// of the data — a crash can tear the segment anywhere.
	for cut := 0; cut < len(full); cut += 7 {
		if err := os.WriteFile(seg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Config{Dir: dir, BlockBytes: 256})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		res := s2.Select("c", nil, 0, 1e9)
		n := 0
		if len(res) == 1 {
			n = len(res[0].Samples)
			for i, p := range res[0].Samples {
				if p.V != float64(i) {
					t.Fatalf("cut=%d: sample %d = %v, not a clean prefix", cut, i, p)
				}
			}
		}
		if n > 300 {
			t.Fatalf("cut=%d: %d samples from a %d-sample log", cut, n, 300)
		}
		s2.Close()
	}
	os.WriteFile(seg, full, 0o644)
}

// TestPersistTornHeaderClaimsNoMemory: a torn tail whose length prefix
// claims the largest record the reader accepts, with 8 bytes behind it,
// loads as the clean prefix and is not allocated for.
func TestPersistTornHeaderClaimsNoMemory(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockBytes: 256})
	fill(s, "c", nil, genSamples(300, 0, 5, func(i int) float64 { return float64(i) }))
	s.Close()

	f, err := os.OpenFile(segPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(binary.BigEndian.AppendUint32(nil, 64<<20))
	f.Write(make([]byte, 8))
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, err := Open(Config{Dir: dir, BlockBytes: 256})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("replay allocated %d bytes for a 12-byte torn tail", grew)
	}
	if res := s2.Select("c", nil, 0, 1e9); len(res) != 1 || len(res[0].Samples) != 300 {
		t.Errorf("clean prefix lost behind the torn header: %d series", len(res))
	}
}

// TestPersistAppendAfterTornReopen is the crash-recovery sequence the
// torn-tail rule exists for: crash tears the segment, the restarted
// store appends new history, and a second restart must see both the
// pre-crash prefix and everything written since. Without truncating the
// tear on open, the new records land after the torn bytes and replay
// silently drops them all.
func TestPersistAppendAfterTornReopen(t *testing.T) {
	ref, _ := Open(Config{Dir: t.TempDir(), BlockBytes: 256})
	fill(ref, "c", nil, genSamples(300, 0, 5, func(i int) float64 { return float64(i) }))
	ref.Close()
	full, err := os.ReadFile(segPath(ref.cfg.Dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []int{len(full) - 1, len(full) - 11, len(full) / 2, 2} {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := Open(Config{Dir: dir, BlockBytes: 256})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		kept := 0
		if res := s.Select("c", nil, 0, 1e9); len(res) == 1 {
			kept = len(res[0].Samples)
		}
		fill(s, "c", nil, genSamples(100, 5000, 5, func(i int) float64 { return float64(1000 + i) }))
		if err := s.Close(); err != nil {
			t.Fatalf("cut=%d: close: %v", cut, err)
		}

		s2, err := Open(Config{Dir: dir, BlockBytes: 256})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		res := s2.Select("c", nil, 0, 1e9)
		if len(res) != 1 {
			t.Fatalf("cut=%d: %d series after reopen", cut, len(res))
		}
		if got := len(res[0].Samples); got != kept+100 {
			t.Fatalf("cut=%d: %d samples after reopen, want %d kept + 100 appended", cut, got, kept)
		}
		for i, p := range res[0].Samples {
			want := float64(i)
			if i >= kept {
				want = float64(1000 + i - kept)
			}
			if p.V != want {
				t.Fatalf("cut=%d: sample %d = %v want %v", cut, i, p.V, want)
			}
		}
		s2.Close()
	}
}

// A malformed record in a fully-rotated (non-final) segment is
// mid-history corruption, not a crash artifact: Open must refuse it
// rather than silently skip a stretch of history.
func TestPersistMidHistoryCorruptionErrors(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotations so segment 1 is not the live one.
	s, err := Open(Config{Dir: dir, BlockBytes: 128, MaxSegBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fill(s, "c", nil, genSamples(5000, 0, 5, func(i int) float64 { return float64(i) }))
	s.Close()
	seqs, _ := listSegments(dir)
	if len(seqs) < 2 {
		t.Fatalf("segments: %v, want >= 2", seqs)
	}

	seg := segPath(dir, seqs[0])
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if s2, err := Open(Config{Dir: dir, BlockBytes: 128, MaxSegBytes: 1024}); err == nil {
		s2.Close()
		t.Fatal("mid-history corruption silently tolerated")
	}
}

// A crc-valid record whose keyLen uvarint is 2^64-1 must be rejected as
// corrupt — the bounds check cannot be allowed to wrap and panic.
func TestPersistHugeKeyLenNoPanic(t *testing.T) {
	dir := t.TempDir()
	body := binary.AppendUvarint(nil, math.MaxUint64)
	body = append(body, "junk"...)
	rec := append(body, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(rec[len(body):], crc32.ChecksumIEEE(body))
	var buf []byte
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec)))
	buf = append(buf, rec...)
	if err := os.WriteFile(segPath(dir, 1), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(Config{Dir: dir}); err == nil {
		s.Close()
		t.Fatal("record with 2^64-1 keyLen accepted")
	}
}

func TestPersistCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Config{Dir: dir, BlockBytes: 256})
	fill(s, "c", nil, genSamples(300, 0, 5, func(i int) float64 { return float64(i) }))
	s.Close()

	seg := segPath(dir, 1)
	full, _ := os.ReadFile(seg)
	corrupt := append([]byte(nil), full...)
	corrupt[len(corrupt)/2] ^= 0xff // flip a bit mid-file
	os.WriteFile(seg, corrupt, 0o644)

	s2, err := Open(Config{Dir: dir, BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res := s2.Select("c", nil, 0, 1e9)
	// Replay stops at the bad crc: we get some clean prefix, never junk.
	if len(res) == 1 {
		for i, p := range res[0].Samples {
			if p.V != float64(i) {
				t.Fatalf("sample %d after corruption: %v", i, p)
			}
		}
		if len(res[0].Samples) >= 300 {
			t.Fatal("corruption not detected")
		}
	}
}

func TestPersistSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	log, err := telemetry.OpenEventLog(logPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny segments force several rotations.
	s, err := Open(Config{Dir: dir, BlockBytes: 128, MaxSegBytes: 1024, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	fill(s, "c", nil, genSamples(5000, 0, 5, func(i int) float64 { return float64(i * i) }))
	s.Close()
	log.Close()

	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("segments: %v, want >= 3", seqs)
	}

	var markers int
	err = telemetry.ReadEventsPath(logPath, func(ev telemetry.Event) error {
		if ev.Type == "tsdb_segment" {
			markers++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if markers != len(seqs)-1 {
		t.Fatalf("markers: %d, want %d (one per finished segment)", markers, len(seqs)-1)
	}

	// Reload across all segments.
	s2, err := Open(Config{Dir: dir, BlockBytes: 128, MaxSegBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Samples; got != 5000 {
		t.Fatalf("samples across segments: %d", got)
	}
}
