package jsonenc

import (
	"encoding/json"
	"math"
	"testing"
)

// floatCases are the format boundaries of encoding/json's float64 rule.
var floatCases = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1e-6, math.Nextafter(1e-6, 0), 1e-7, -1e-7,
	1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 123456789.125, 5e-324, 2.2250738585072014e-308,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1e-100, 1.5e300,
}

// TestAppendFloatMatchesEncodingJSON requires AppendFloat to write the
// bytes json.Marshal writes for every finite float64 boundary case.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range floatCases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat([]byte("x"), f); string(got) != "x"+string(want) {
			t.Errorf("AppendFloat(%g) = %q, encoding/json %q", f, got[1:], want)
		}
	}
}

// FuzzAppendFloat: any finite float64 encodes as encoding/json encodes it.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatCases {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, v); string(got) != string(want) {
			t.Fatalf("AppendFloat(%g) = %q, encoding/json %q", v, got, want)
		}
	})
}
