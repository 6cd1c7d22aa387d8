package wrapper

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode runs the report decoder on arbitrary bytes, as the master's
// frame decoder does on the report field of whatever a worker's result
// carries. Decoding never panics, and a report that decodes re-encodes to
// bytes that decode to the same report, its six slots and every name in
// them included. The checked-in corpus (testdata/fuzz/FuzzDecode) holds a
// successful analysis report, a report whose stage-in failed and a report
// in the map-shaped form workers sent before segment metrics were typed; a
// seed has nine entries, more than the six slots, of which the decoder
// keeps the first six.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"segments":[],"exit_code":0}`))
	f.Add([]byte(`{"segments":null}`))
	f.Add([]byte(`{"segments":[{"segment":"execute","duration":-1,"metrics":{"events":-0,"bytes_in":1e308}}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"segments":[` + strings.Repeat(`{"segment":"execute","duration":1},`, 8) + `{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
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
	})
}
