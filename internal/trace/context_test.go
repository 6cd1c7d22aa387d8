package trace

import (
	"net/http"
	"strings"
	"testing"
)

func TestContextRoundTrip(t *testing.T) {
	cases := []Context{
		{TraceID: 1, SpanID: 2, Sampled: true},
		{TraceID: 0xdeadbeefcafef00d, SpanID: 0x0123456789abcdef, Sampled: false},
		{TraceID: ^uint64(0), SpanID: 0, Sampled: true, Baggage: "cat=ttbar"},
		{TraceID: 7, SpanID: 7, Sampled: false, Baggage: "wf=mc-gen-2026,step=3"},
	}
	for _, c := range cases {
		enc := c.Encode()
		if strings.ContainsAny(enc, " \t\n\r") {
			t.Fatalf("Encode(%+v) = %q contains whitespace", c, enc)
		}
		got, ok := Parse(enc)
		if !ok {
			t.Fatalf("Parse(%q) failed", enc)
		}
		if got != c {
			t.Fatalf("round trip: got %+v, want %+v", got, c)
		}
	}
}

func TestContextBaggageWithDashes(t *testing.T) {
	c := Context{TraceID: 3, SpanID: 4, Sampled: true, Baggage: "a-b-c-d"}
	got, ok := Parse(c.Encode())
	if !ok || got.Baggage != "a-b-c-d" {
		t.Fatalf("baggage with dashes: got %+v ok=%v", got, ok)
	}
}

func TestEncodeSanitizesBaggageWhitespace(t *testing.T) {
	c := Context{TraceID: 3, SpanID: 4, Sampled: true, Baggage: "two words\tand\nmore"}
	enc := c.Encode()
	if strings.ContainsAny(enc, " \t\n\r") {
		t.Fatalf("Encode left whitespace in %q", enc)
	}
	got, ok := Parse(enc)
	if !ok || got.Baggage != "two_words_and_more" {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestZeroContextEncodesEmpty(t *testing.T) {
	if enc := (Context{}).Encode(); enc != "" {
		t.Fatalf("zero context encoded to %q", enc)
	}
}

// TestParseMalformed is the degradation contract: anything malformed
// must decode to (zero, false) — the receiver starts a fresh root and
// the task proceeds. Parse must never panic or reject a task.
func TestParseMalformed(t *testing.T) {
	bad := []string{
		"",
		"lt1",
		"lt1-",
		"lt2-0000000000000001-0000000000000002-01", // wrong version
		"lt1-1-2-01", // short hex fields
		"lt1-000000000000000g-0000000000000002-01", // bad hex
		"lt1-0000000000000000-0000000000000002-01", // zero trace ID
		"lt1-0000000000000001-0000000000000002-02", // bad flags
		"lt1-0000000000000001-0000000000000002-1",  // short flags
		"lt1-0000000000000001-0000000000000002",    // missing flags
		"lt1-0000000000000001",                     // missing span
		"garbage",
		"lt1-00000000000000010000000000000002-01",
		"lt1--0000000000000001-0000000000000002-01",
		"LT1-0000000000000001-0000000000000002-01", // case-sensitive version
		strings.Repeat("lt1-", 1000),
	}
	for _, s := range bad {
		got, ok := Parse(s)
		if ok || got != (Context{}) {
			t.Errorf("Parse(%q) = %+v, %v; want zero, false", s, got, ok)
		}
	}
}

// FuzzParse asserts Parse never panics and that every accepted token
// re-encodes to something Parse accepts with identical identity.
func FuzzParse(f *testing.F) {
	f.Add("lt1-0000000000000001-0000000000000002-01")
	f.Add("lt1-deadbeefcafef00d-0123456789abcdef-00-baggage")
	f.Add("")
	f.Add("lt1----")
	f.Add("lt1-0000000000000001-0000000000000002-01-a-b-c")
	f.Fuzz(func(t *testing.T, s string) {
		c, ok := Parse(s)
		if !ok {
			if c != (Context{}) {
				t.Fatalf("Parse(%q) rejected but returned %+v", s, c)
			}
			return
		}
		if !c.Valid() {
			t.Fatalf("Parse(%q) accepted an invalid context", s)
		}
		c2, ok2 := Parse(c.Encode())
		if !ok2 || c2.TraceID != c.TraceID || c2.SpanID != c.SpanID || c2.Sampled != c.Sampled {
			t.Fatalf("re-encode of %q lost identity: %+v vs %+v", s, c2, c)
		}
	})
}

func TestHTTPCarrier(t *testing.T) {
	c := Context{TraceID: 9, SpanID: 10, Sampled: true, Baggage: "x"}
	h := make(http.Header)
	c.SetHTTP(h)
	got, ok := FromHTTP(h)
	if !ok || got != c {
		t.Fatalf("HTTP round trip: got %+v ok=%v", got, ok)
	}
	// Zero context clears the header rather than sending garbage.
	(Context{}).SetHTTP(h)
	if v := h.Get(Header); v != "" {
		t.Fatalf("zero SetHTTP left header %q", v)
	}
	if _, ok := FromHTTP(make(http.Header)); ok {
		t.Fatal("FromHTTP on empty header succeeded")
	}
}
