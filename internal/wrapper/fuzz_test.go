package wrapper

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// decodeBound is the most the report decoder may allocate for an n-byte
// input: 64·n + 4 KiB. The linear term is encoding/json's scanner, whose
// stack grows by one word per open bracket up to its nesting limit of
// 10,000 (an input of '[' bytes reads about 36 B per byte); strings, a
// failed segment's error among them, cost about a byte per byte, and the
// decoder's own state, with the report, about 0.3 KiB.
func decodeBound(n int) uint64 { return 64*uint64(n) + 4<<10 }

// decodeAllocated is the heap bytes one decode of data allocates: the
// least of three tries, so that an allocation of the fuzzing engine's
// own in between is not charged to the decoder.
func decodeAllocated(data []byte) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var rep Report
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_ = json.Unmarshal(data, &rep)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// FuzzDecode runs the report decoder on arbitrary bytes, as the master's
// frame decoder does on the report field of whatever a worker's result
// carries. Decoding never panics and, whether or not it succeeds,
// allocates at most decodeBound of the input's size. A report that decodes
// is at a fixpoint after one trip: it re-encodes to bytes that decode to
// the same report and re-encode to the same bytes. The checked-in corpus
// (testdata/fuzz/FuzzDecode) holds a successful analysis report, a report
// whose stage-in failed, and a failed report whose segment name and error
// are escaped; a seed below has nine durations, more than the six slots,
// of which the decoder keeps the first six.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"durations":[],"metrics":{}}`))
	f.Add([]byte(`{"durations":null,"metrics":null,"exit_code":0}`))
	f.Add([]byte(`{"durations":[-1,0,0,0,9223372036854775807],"metrics":{"events":-0,"bytes_in":1e308}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"durations":[` + strings.Repeat(`1,`, 8) + `1],"exit_code":60,"failed_segment":"stage_out","error":"chirp: put refused"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, bound := decodeAllocated(data), decodeBound(len(data)); got > bound {
			t.Fatalf("decoding %d bytes allocated %d B, over the bound of %d", len(data), got, bound)
		}
		var rep Report
		if json.Unmarshal(data, &rep) != nil {
			return
		}
		enc, err := json.Marshal(&rep)
		if err != nil {
			t.Fatalf("decoded report does not encode: %v", err)
		}
		var again Report
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rep) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, again)
		}
		if enc2, err := json.Marshal(&again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("second encoding differs (%v):\n%s\n%s", err, enc, enc2)
		}
	})
}
