package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// Event is one JSONL event-log line. Data holds the type-specific payload
// verbatim; the monitor's replay path decodes "task" events back into
// TaskRecords to rebuild its database after a crash.
type Event struct {
	Time float64         `json:"t"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// EventLog is an append-only, line-buffered JSONL structured event log.
// Safe for concurrent use; the nil EventLog discards everything.
//
// A log opened with OpenEventLogLimit rotates: when the live file
// reaches the size cap it is renamed to <path>.<seq> (zero-padded,
// oldest first) and a fresh live file is opened, so long runs bound the
// size of any single segment. ReadEventsPath replays segments and the
// live file in write order.
type EventLog struct {
	clock Clock

	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	err    error

	// rotation state; maxBytes == 0 means the log never rotates.
	path     string
	maxBytes int64
	written  int64 // bytes in the live segment
	nextSeg  int
}

// NewEventLog writes events to w, stamping them with clock (nil clock
// stamps zeros).
func NewEventLog(w io.Writer, clock Clock) *EventLog {
	if clock == nil {
		clock = func() float64 { return 0 }
	}
	l := &EventLog{clock: clock, w: bufio.NewWriterSize(w, 64<<10)}
	if c, ok := w.(io.Closer); ok {
		l.closer = c
	}
	return l
}

// OpenEventLog appends to the JSONL file at path, creating it if needed.
func OpenEventLog(path string, clock Clock) (*EventLog, error) {
	return OpenEventLogLimit(path, 0, clock)
}

// OpenEventLogLimit is OpenEventLog with size-capped rotation: once the
// live file reaches maxBytes, it is renamed to the next <path>.<seq>
// segment and a fresh file opened. maxBytes <= 0 disables rotation.
// Appending to a log that already has rotated segments continues the
// sequence after the highest existing one.
func OpenEventLogLimit(path string, maxBytes int64, clock Clock) (*EventLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: event log: %w", err)
	}
	size, err := endLine(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("telemetry: event log %s: %w", path, err)
	}
	l := NewEventLog(f, clock)
	if maxBytes > 0 {
		l.path = path
		l.maxBytes = maxBytes
		l.written = size
		segs, _ := eventSegments(path)
		if len(segs) > 0 {
			l.nextSeg = segs[len(segs)-1].seq + 1
		} else {
			l.nextSeg = 1
		}
	}
	return l, nil
}

// endLine makes a live file that a crash left without a final newline end
// on a line boundary, and returns its size, before anything is appended:
// else the next event would fuse with the unterminated tail into one
// malformed line. This is seglog's live-segment rule in line framing. A
// whole event in the tail gets its newline, since ReadEvents already counts
// it; anything else is the torn tail ReadEvents skips, and is cut off.
func endLine(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	end := st.Size()
	start := end // of the unterminated tail
	var buf [4096]byte
	for start > 0 {
		n := min(start, int64(len(buf)))
		if _, err := f.ReadAt(buf[:n], start-n); err != nil {
			return 0, err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			start += int64(i) + 1 - n
			break
		}
		start -= n
	}
	if start == end {
		return end, nil
	}
	tail := make([]byte, end-start)
	if _, err := f.ReadAt(tail, start); err != nil {
		return 0, err
	}
	if json.Unmarshal(tail, new(Event)) == nil {
		_, err = f.Write([]byte{'\n'})
		return end + 1, err
	}
	return start, f.Truncate(start)
}

// Emit appends one event of the given type. Marshal failures poison the
// log (subsequent Flush/Close return the first error) rather than panic.
func (l *EventLog) Emit(typ string, data any) {
	if l == nil {
		return
	}
	payload, err := json.Marshal(data)
	if err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("telemetry: event %s: %w", typ, err)
		}
		l.mu.Unlock()
		return
	}
	ev := Event{Time: l.clock(), Type: typ, Data: payload}
	line, err := json.Marshal(&ev)
	if err != nil {
		return
	}
	l.mu.Lock()
	l.w.Write(line)
	l.w.WriteByte('\n')
	if l.maxBytes > 0 {
		l.written += int64(len(line)) + 1
		if l.written >= l.maxBytes {
			l.rotateLocked()
		}
	}
	l.mu.Unlock()
}

// rotateLocked renames the live file to the next segment and reopens a
// fresh one. Failures poison the log's error but keep it writable: a
// failed rename simply keeps appending to the oversized live file.
func (l *EventLog) rotateLocked() {
	if err := l.w.Flush(); err != nil {
		if l.err == nil {
			l.err = err
		}
		return
	}
	if l.closer != nil {
		l.closer.Close()
		l.closer = nil
	}
	seg := fmt.Sprintf("%s.%06d", l.path, l.nextSeg)
	if err := os.Rename(l.path, seg); err != nil && l.err == nil {
		l.err = fmt.Errorf("telemetry: event log rotate: %w", err)
	} else {
		l.nextSeg++
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("telemetry: event log reopen: %w", err)
		}
		l.w = bufio.NewWriter(io.Discard)
		return
	}
	l.w = bufio.NewWriterSize(f, 64<<10)
	l.closer = f
	if st, err := f.Stat(); err == nil {
		l.written = st.Size()
	} else {
		l.written = 0
	}
}

// Flush forces buffered events to the underlying writer.
func (l *EventLog) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil && l.err == nil {
		l.err = err
	}
	return l.err
}

// Close flushes and closes the underlying writer when it is closable.
func (l *EventLog) Close() error {
	if l == nil {
		return nil
	}
	err := l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closer != nil {
		if cerr := l.closer.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.closer = nil
	}
	return err
}

// ReadEvents scans a JSONL event stream, calling fn for each event. Blank
// lines are skipped. A malformed line aborts with its line number — unless
// it is the last non-blank line of the stream, which is skipped silently:
// that is the torn tail a crash (or reading a log while its writer is
// mid-flush) leaves behind, and replay must survive it.
func ReadEvents(r io.Reader, fn func(Event) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	lineNo := 0
	var torn error // malformed line; fatal only if more events follow
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if torn != nil {
			return torn
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			torn = fmt.Errorf("telemetry: event log line %d: %w", lineNo, err)
			continue
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	return sc.Err()
}

// segment is one rotated event-log file.
type segment struct {
	path string
	seq  int
}

// eventSegments lists path's rotated segments (<path>.<digits>) in
// sequence order.
func eventSegments(path string) ([]segment, error) {
	matches, err := filepath.Glob(path + ".*")
	if err != nil {
		return nil, err
	}
	var segs []segment
	for _, m := range matches {
		suffix := m[len(path)+1:]
		seq, err := strconv.Atoi(suffix)
		if err != nil || seq < 0 || suffix[0] == '-' {
			continue
		}
		segs = append(segs, segment{path: m, seq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// EventFiles returns every file holding events for the log at path —
// rotated segments oldest-first, then the live file — so callers can
// replay a rotated log in write order. The live file may be absent
// (e.g. renamed away manually) as long as segments exist.
func EventFiles(path string) ([]string, error) {
	segs, err := eventSegments(path)
	if err != nil {
		return nil, err
	}
	files := make([]string, 0, len(segs)+1)
	for _, s := range segs {
		files = append(files, s.path)
	}
	if _, err := os.Stat(path); err == nil {
		files = append(files, path)
	} else if len(files) == 0 {
		return nil, fmt.Errorf("telemetry: event log %s: %w", path, err)
	}
	return files, nil
}

// ReadEventsPath replays the log at path across all rotated segments
// and the live file, in write order.
func ReadEventsPath(path string, fn func(Event) error) error {
	files, err := EventFiles(path)
	if err != nil {
		return err
	}
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("telemetry: event log: %w", err)
		}
		err = ReadEvents(f, fn)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	return nil
}
