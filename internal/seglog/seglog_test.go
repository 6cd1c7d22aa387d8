package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

const sfx = ".log"

// shrink seals segments at n bytes for the rest of the test.
func shrink(t *testing.T, n int64) {
	old := segBytes
	segBytes = n
	t.Cleanup(func() { segBytes = old })
}

// kv is a toy owner: each record is "key=value" and the last write wins.
type kv map[string]string

func (s kv) replay(rec []byte) error {
	k, v, ok := strings.Cut(string(rec), "=")
	if !ok {
		return errors.New("not key=value")
	}
	s[k] = v
	return nil
}

func (s kv) compact(add func([]byte) error) error {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := add([]byte(k + "=" + s[k])); err != nil {
			return err
		}
	}
	return nil
}

// cleanPrefix is the reference reading of one segment: the records of its
// longest run of well-formed frames, and that run's length in bytes.
func cleanPrefix(data []byte) (recs []string, n int) {
	for len(data)-n >= 4 {
		l := int(binary.BigEndian.Uint32(data[n:]))
		if l < 4 || l > len(data)-n-4 {
			break
		}
		body := data[n+4 : n+l]
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[n+l:]) {
			break
		}
		recs = append(recs, string(body))
		n += 4 + l
	}
	return recs, n
}

// segFile names segment seq of the test log in dir.
func segFile(dir string, seq int) string { return (&Log{dir: dir, suffix: sfx}).path(seq) }

// replayAll opens the log in dir and returns every record it replays.
func replayAll(t *testing.T, dir string) []string {
	t.Helper()
	var recs []string
	l, err := Open(dir, sfx, func(rec []byte) error {
		recs = append(recs, string(rec))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// segments reads every segment file in dir, oldest first.
func segments(t *testing.T, dir string) (seqs []int, data [][]byte) {
	t.Helper()
	seqs, err := list(dir, sfx)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		b, err := os.ReadFile(segFile(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, b)
	}
	return seqs, data
}

// FuzzReplay feeds any bytes to Open as the live segment. Open must not
// panic, must replay exactly the records of the longest clean prefix, and
// must cut the file back to it; a record appended after that survives a
// reopen behind them.
func FuzzReplay(f *testing.F) {
	frame := func(body string) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(len(body)+4))
		b = append(b, body...)
		return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(body)))
	}
	good := append(frame("a=1"), frame("b=2")...)
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(good)-1])                                 // torn body
	f.Add(append(frame("a=1"), 0, 0))                         // torn length prefix
	f.Add(append(frame("a=1"), 0, 0, 0, 3))                   // length below the crc's own 4 bytes
	f.Add(append(frame("a=1"), 0x04, 0, 0, 0, 0, 0, 0, 0))    // 64 MiB claimed, 4 bytes behind it
	f.Add(append(frame("a=1"), 0xff, 0xff, 0xff, 0xff))       // the largest length a frame can claim
	f.Add(append(good[:len(good)-1], good[len(good)-1]^0xff)) // bad crc
	f.Add(append(frame(""), frame("c=3")...))                 // an empty record is a record
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := segFile(dir, 1)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, n := cleanPrefix(data)
		if got := replayAll(t, dir); !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed %q, want %q", got, want)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(n) {
			t.Fatalf("live segment not cut to its %d-byte clean prefix: %v %v", n, st.Size(), err)
		}
		l, err := Open(dir, sfx, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte("probe")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got := replayAll(t, dir); !reflect.DeepEqual(got, append(want, "probe")) {
			t.Fatalf("after an append, replayed %q, want %q + probe", got, want)
		}
	})
}

// TestReplayEveryPrefix is the crash model over a log that has sealed
// segments and been compacted: a crash leaves every earlier segment whole
// and the one it was writing cut at any byte. Each such directory replays
// the earlier segments' records and then exactly the cut segment's whole
// records, and its file is cut back to them.
func TestReplayEveryPrefix(t *testing.T) {
	shrink(t, 64)
	src := t.TempDir()
	state := kv{}
	l, err := Open(src, sfx, state.replay)
	if err != nil {
		t.Fatal(err)
	}
	seals := 0
	put := func(i int) {
		k, v := fmt.Sprint("k", i%5), fmt.Sprint(i)
		state[k] = v
		seq := l.seq
		if err := l.Append([]byte(k + "=" + v)); err != nil {
			t.Fatal(err)
		}
		if l.seq != seq {
			seals++
		}
	}
	for i := 0; i < 20; i++ {
		put(i)
	}
	if err := l.Compact(state.compact); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 40; i++ {
		put(i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, segs := segments(t, src)
	if seals < 2 || seqs[0] == 1 || len(seqs) < 2 {
		t.Fatalf("%d seals, segments %v: want seals on both sides of a compaction", seals, seqs)
	}

	dir := t.TempDir()
	var before []string // the whole segments ahead of the cut one
	for i, seg := range segs {
		recs, n := cleanPrefix(seg)
		if n != len(seg) {
			t.Fatalf("segment %d: %d clean bytes of %d", seqs[i], n, len(seg))
		}
		path := segFile(dir, seqs[i])
		kept, end := 0, 0
		for cut := 0; cut <= len(seg); cut++ {
			for kept < len(recs) && end+8+len(recs[kept]) <= cut {
				end += 8 + len(recs[kept])
				kept++
			}
			if err := os.WriteFile(path, seg[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			want := append(append([]string(nil), before...), recs[:kept]...)
			if got := replayAll(t, dir); !reflect.DeepEqual(got, want) {
				t.Fatalf("segment %d cut at %d: replayed %q, want %q", seqs[i], cut, got, want)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(end) {
				t.Fatalf("segment %d cut at %d: not cut back to %d bytes (%v)", seqs[i], cut, end, err)
			}
		}
		before = append(before, recs...)
	}
	rebuilt := kv{}
	for _, rec := range before {
		rebuilt.replay([]byte(rec))
	}
	if !reflect.DeepEqual(rebuilt, state) {
		t.Fatalf("whole log rebuilds %v, want %v", rebuilt, state)
	}
}

// TestCompactCrashPoints builds by hand the directory Compact leaves at each
// point a crash can stop it, and requires every one to rebuild the state
// the log held.
func TestCompactCrashPoints(t *testing.T) {
	shrink(t, 64)
	src := t.TempDir()
	state := kv{}
	l, err := Open(src, sfx, state.replay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprint("k", i%7), fmt.Sprint(i)
		state[k] = v
		if err := l.Append([]byte(k + "=" + v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	oldSeqs, old := segments(t, src)
	if err := l.Compact(state.compact); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	newSeqs, compacted := segments(t, src)
	if len(oldSeqs) < 2 || len(newSeqs) != 1 || newSeqs[0] != oldSeqs[len(oldSeqs)-1]+1 {
		t.Fatalf("segments %v before compaction, %v after", oldSeqs, newSeqs)
	}
	newSeq, fresh := newSeqs[0], compacted[0]

	check := func(point string, dir string) {
		t.Helper()
		rebuilt := kv{}
		l, err := Open(dir, sfx, rebuilt.replay)
		if err != nil {
			t.Fatalf("%s: %v", point, err)
		}
		l.Close()
		if !reflect.DeepEqual(rebuilt, state) {
			t.Fatalf("%s: rebuilt %v, want %v", point, rebuilt, state)
		}
	}
	write := func(dir string, seq int, data []byte) {
		if err := os.WriteFile(segFile(dir, seq), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Removal goes oldest first: the first `removed` old segments are gone.
	for removed := 0; removed <= len(old); removed++ {
		dir := t.TempDir()
		for i := removed; i < len(old); i++ {
			write(dir, oldSeqs[i], old[i])
		}
		if removed == 0 {
			check("before the new segment", dir)
			for cut := 0; cut < len(fresh); cut++ {
				write(dir, newSeq, fresh[:cut])
				check(fmt.Sprintf("new segment written to byte %d", cut), dir)
			}
		}
		write(dir, newSeq, fresh)
		check(fmt.Sprintf("new segment whole, %d of %d old removed", removed, len(old)), dir)
	}
}

// TestDecoderRejectionIsAnError: a record that passes its CRC but that the
// owner rejects was written whole. Open fails on it, in the live segment
// too, and leaves the records behind it on disk.
func TestDecoderRejectionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, sfx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"a=1", "garbage", "c=3"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(segFile(dir, 1))
	if _, err := Open(dir, sfx, kv{}.replay); err == nil || !strings.Contains(err.Error(), "not key=value") {
		t.Fatalf("Open = %v, want the decoder's error", err)
	}
	if after, _ := os.ReadFile(segFile(dir, 1)); !reflect.DeepEqual(after, before) {
		t.Fatalf("live segment changed from %d to %d bytes", len(before), len(after))
	}
}
