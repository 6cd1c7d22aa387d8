package wrapper

import (
	"reflect"
	"testing"
)

// FuzzDecode runs the report decoder on arbitrary bytes, as the master
// does on whatever a worker's result carries. Decoding never panics, and
// a report that decodes re-encodes to bytes that decode to the same
// report. The checked-in corpus (testdata/fuzz/FuzzDecode) holds a
// successful analysis report, a report whose stage-in failed and a report
// in the map-shaped form workers sent before segment metrics were typed.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"segments":[],"exit_code":0}`))
	f.Add([]byte(`{"segments":null}`))
	f.Add([]byte(`{"segments":[{"segment":"execute","duration":-1,"metrics":{"events":-0,"bytes_in":1e308}}]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Decode(rep.Encode())
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, rep) {
			t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, again)
		}
	})
}
