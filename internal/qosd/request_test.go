package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"
)

// parseRequestOracle is how ParseRequest decoded bodies before the hand
// parser: encoding/json with unknown fields disallowed and nothing but
// whitespace allowed after the object, then the same value checks.
func parseRequestOracle(data []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("qosd: parsing request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Request{}, fmt.Errorf("qosd: trailing data after request object")
	}
	if req.Item < 1 {
		return Request{}, fmt.Errorf("qosd: item %d not positive", req.Item)
	}
	if req.DeadlineIn < 0 || math.IsNaN(req.DeadlineIn) || math.IsInf(req.DeadlineIn, 0) {
		return Request{}, fmt.Errorf("qosd: invalid deadline_in %g", req.DeadlineIn)
	}
	return req, nil
}

// FuzzParseRequest holds ParseRequest to parseRequestOracle: the same
// accept/reject decision on every input and, on acceptance, the same
// Request, DeadlineIn compared bit for bit (so -0 stays -0).
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		`{"item":1}`,
		`{"item":42,"deadline_in":3.5}`,
		`{"item":-1}`,
		`{"deadline_in":1e309}`,
		`[]`,
		`{"item":5}}`,
		`{"item":5} ]`,
		"{\"item\":5} \n",
		// Escaped and case-folded keys.
		`{"\u0069tem":3,"deadline_\u0069n":2}`,
		`{"it\u0045m":3}`,
		`{"ITEM":3,"Deadline_IN":2}`,
		`{"\u212aitem":3}`,
		"{\"\u0131tem\":3}",
		"{\"\u0130TEM\":3}",
		`{"item\ud800":3}`,
		`{"\ud83d\ude00":3}`,
		`{"it\/em":3}`,
		// Duplicate keys and nulls.
		`{"item":3,"item":9}`,
		`{"item":3,"item":null}`,
		`{"item":null}`,
		`{"item":2,"deadline_in":null}`,
		`{"item":-4,"ITEM":4}`,
		`null`,
		// Number edges.
		`{"item":1,"deadline_in":-0}`,
		`{"item":1,"deadline_in":1e309}`,
		`{"item":1,"deadline_in":1e-400}`,
		`{"item":1,"deadline_in":0.12345678901234567890123456789012345678901234567890}`,
		`{"item":1,"deadline_in":-1}`,
		`{"item":9223372036854775807}`,
		`{"item":9223372036854775808}`,
		`{"item":-9223372036854775808,"item":2}`,
		`{"item":1.0}`,
		`{"item":1e2}`,
		`{"item":01}`,
		`{"item":-}`,
		`{"item":1.}`,
		`{"item":1,"deadline_in":2E+1}`,
		`{"item":"5"}`,
		`{"item":true}`,
		// Whitespace, a byte-order mark and invalid UTF-8.
		"\r\n\t{\r\n\t\"item\"\r\n\t:\r\n\t5\r\n\t,\"deadline_in\" : 1 }\r\n\t",
		"\xef\xbb\xbf{\"item\":1}",
		"{\"it\xffem\":1}",
		"{\"item\":1,\"\xff\":2}",
		"{\"item\x01\":1}",
		// Nested unknown values, trailing data, an empty body.
		`{"item":1,"x":{"a":[1,2,{"b":null}]}}`,
		`{"item":{"a":1}}`,
		`{"item":[1]}`,
		`{"item":1}x`,
		`{"item":1},`,
		`{"item":1,}`,
		`{,"item":1}`,
		`{}`,
		``,
		` `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ParseRequest(data)
		want, oerr := parseRequestOracle(data)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%q: ParseRequest error %v, encoding/json error %v", data, err, oerr)
		}
		if got.Item != want.Item || math.Float64bits(got.DeadlineIn) != math.Float64bits(want.DeadlineIn) {
			t.Fatalf("%q: ParseRequest %+v, encoding/json %+v", data, got, want)
		}
	})
}
