package tsdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"lobster/internal/seglog"
)

// Crash-safe persistence. Each sealed block becomes one seglog record in
// a numbered segment file (seg-NNNNNN.tsdb) whose body is:
//
//	uvarint keyLen, key bytes   (series key: name \x00 k \x01 v ...)
//	uvarint sample count
//	u64   tFirst (ms), u64 tLast (ms)
//	uvarint payload length, payload bytes (Gorilla block)
//
// seglog frames, replays and cuts it (see its package doc). Each time a
// segment seals the store emits a "tsdb_segment" marker into the shared
// event log so the monitor's replay sees where history rotated.

const segSuffix = ".tsdb"

// Open creates a persistent store in cfg.Dir, replaying any existing
// segments so a restarted hub continues its history.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, errors.New("tsdb: Open needs Config.Dir")
	}
	s := New(cfg)
	log, err := seglog.Open(cfg.Dir, segSuffix, s.loadRecord)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	s.log = log
	return s, nil
}

// writeBlock appends one sealed block record. A write error sticks in the
// log and surfaces on Flush; the in-memory store stays correct regardless.
// Caller holds s.mu.
func (s *Store) writeBlock(key string, n int, tFirst, tLast int64, payload []byte) {
	b := s.scratch[:0]
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.BigEndian.AppendUint64(b, uint64(tFirst))
	b = binary.BigEndian.AppendUint64(b, uint64(tLast))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	s.scratch = b
	if sealed, _ := s.log.Append(b); sealed != nil {
		s.cfg.Log.Emit("tsdb_segment", sealed)
	}
}

// loadRecord decodes one record body and installs the sealed block.
// Length fields are compared without addition — a huge uvarint must
// fail the bound check, not wrap it and panic the slice below (the
// crc gates accidents, not all corruption).
func (s *Store) loadRecord(body []byte) error {
	keyLen, n := binary.Uvarint(body)
	if n <= 0 || keyLen > uint64(len(body)-n) {
		return errors.New("bad record key")
	}
	body = body[n:]
	key := string(body[:keyLen])
	body = body[keyLen:]
	count, n := binary.Uvarint(body)
	if n <= 0 || len(body)-n < 16 {
		return errors.New("bad record header")
	}
	body = body[n:]
	tFirst := int64(binary.BigEndian.Uint64(body))
	tLast := int64(binary.BigEndian.Uint64(body[8:]))
	body = body[16:]
	payLen, n := binary.Uvarint(body)
	if n <= 0 || payLen > uint64(len(body)-n) {
		return errors.New("bad record payload")
	}
	payload := body[n : uint64(n)+payLen]
	// Samples cost >= 2 bits each after the 16-byte first, so a count
	// beyond ~4x the payload bytes cannot be real — reject it before it
	// inflates the store's pre-sized decode buffers.
	if count == 0 || count > payLen*4+1 {
		return errors.New("bad record count")
	}

	name, labels, err := parseSeriesKey(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	se := s.series[key]
	if se == nil {
		se = s.newSeries(name, labels, key)
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	se.sealed = append(se.sealed, sealedBlock{buf: buf, n: int(count), tFirst: tFirst, tLast: tLast})
	se.samples += int64(count)
	s.samples += int64(count)
	if tFirst < s.minMs {
		s.minMs = tFirst
	}
	if tLast > s.maxMs {
		s.maxMs = tLast
	}
	s.mu.Unlock()
	return nil
}

// parseSeriesKey splits "name \x00 k \x01 v \x00 k \x01 v ..." back
// into its parts.
func parseSeriesKey(key string) (name string, labels map[string]string, err error) {
	i := strings.IndexByte(key, 0)
	if i < 0 {
		return key, nil, nil
	}
	name = key[:i]
	labels = map[string]string{}
	rest := key[i+1:]
	for len(rest) > 0 {
		j := strings.IndexByte(rest, 1)
		if j < 0 {
			return "", nil, errors.New("bad series key")
		}
		k := rest[:j]
		rest = rest[j+1:]
		var v string
		if e := strings.IndexByte(rest, 0); e >= 0 {
			v, rest = rest[:e], rest[e+1:]
		} else {
			v, rest = rest, ""
		}
		labels[k] = v
	}
	return name, labels, nil
}
