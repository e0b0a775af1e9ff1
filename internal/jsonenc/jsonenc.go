// Package jsonenc appends JSON scalars in exactly the bytes encoding/json
// writes for them. The hand-written append encoders (trace events, qosd
// answers) use it to stay byte-identical to encoding/json without going
// through reflection or allocating.
package jsonenc

import (
	"math"
	"strconv"
)

// AppendFloat appends f as encoding/json encodes a float64: 'f' format at
// zero and inside [1e-6, 1e21), else 'e' with a negative two-digit
// exponent trimmed (1e-07 → 1e-7). −0 encodes as "-0". f must be finite:
// encoding/json refuses NaN and ±Inf, so callers check first.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
