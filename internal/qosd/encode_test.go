package qosd

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hybridqos/internal/admission"
)

// serveOutcomes lists every Outcome string Serve answers with: its own
// four words and every admission verdict's name, one unnamed verdict
// included.
func serveOutcomes() []string {
	outcomes := []string{"served", "expired", "draining", "bad_item"}
	for v := admission.Admitted; v <= admission.RateLimited+1; v++ {
		outcomes = append(outcomes, v.String())
	}
	return outcomes
}

// encodeOracle is how the daemon encoded answers before appendJSON.
func encodeOracle(t *testing.T, r Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatalf("encoding %+v: %v", r, err)
	}
	return buf.Bytes()
}

// TestResponseAppendJSONMatchesEncoder requires appendJSON to write the
// bytes json.NewEncoder(...).Encode writes, for every outcome Serve can
// produce, every class, both Push values and the delays at which
// encoding/json switches float format or omits the field.
func TestResponseAppendJSONMatchesEncoder(t *testing.T) {
	delays := []float64{
		0, math.Copysign(0, -1), 1, 1.5, 0.1, 2.0 / 3, 123456.789,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e-9, 1.5e-10, 1e-100,
		1e20, math.Nextafter(1e21, 0), 1e21, 1.2345e22, 1e300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3, -1, -1e-7, -1e21,
	}
	for _, outcome := range serveOutcomes() {
		if q, _ := json.Marshal(outcome); string(q) != `"`+outcome+`"` {
			t.Errorf("outcome %q needs JSON escaping: %s", outcome, q)
		}
		for class := -1; class < 3; class++ {
			for _, delay := range delays {
				for _, push := range []bool{false, true} {
					r := Response{Outcome: outcome, Class: class, DelayUnits: delay, Push: push}
					if got, want := r.appendJSON(nil), encodeOracle(t, r); !bytes.Equal(got, want) {
						t.Errorf("%+v: appendJSON %q, encoding/json %q", r, got, want)
					}
				}
			}
		}
	}
}

// TestWriteResponseMatchesWriteJSON compares the whole HTTP answer:
// status, headers and body.
func TestWriteResponseMatchesWriteJSON(t *testing.T) {
	for _, r := range []Response{
		{Outcome: "served", Class: 0, DelayUnits: 1.25, Push: true},
		{Outcome: "expired", Class: 2},
	} {
		got, want := httptest.NewRecorder(), httptest.NewRecorder()
		writeResponse(got, http.StatusOK, r)
		writeJSON(want, http.StatusOK, r)
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			len(got.Header()) != len(want.Header()) || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
			t.Errorf("%+v: writeResponse %d %v %q, writeJSON %d %v %q", r,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}
