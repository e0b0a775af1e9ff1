package qosd

// The /request body parser. A body is one JSON object with two optional
// numeric members, so ParseRequest reads it in one pass over the bytes
// instead of through encoding/json, and allocates nothing unless it fails
// or reads a deadline_in longer than strconv's stack buffer. It accepts
// exactly the bodies that encoding/json's Decoder, with unknown fields
// disallowed and nothing but whitespace after the object, decodes into a
// Request, and yields the same Request: FuzzParseRequest holds it to that
// decoder, kept in the tests as parseRequestOracle. Error texts differ
// from the decoder's.

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Request is one client request, POSTed to /request as JSON.
type Request struct {
	// Item is the catalog rank in [1, D].
	Item int `json:"item"`
	// DeadlineIn optionally tightens (never extends) the class's delay
	// budget, in broadcast units.
	DeadlineIn float64 `json:"deadline_in,omitempty"`
}

// The members a key names, as parseKey reports them.
const (
	memberUnknown = iota
	memberItem
	memberDeadline
)

// itemName and deadlineName are the members' JSON names as encoding/json
// folds them to match a key: upper-cased.
const (
	itemName     = "ITEM"
	deadlineName = "DEADLINE_IN"
)

// ParseRequest decodes and sanity-checks one request body. Item range is
// checked against the live catalog by the daemon; here only structural
// validity (the parser has no catalog).
//
// As with encoding/json, a key matches a member case-insensitively after
// unescaping, a repeated member's last value wins, null leaves a member
// as it was, item must be an integer literal within int and deadline_in
// is read by strconv.ParseFloat.
//
//qos:hotpath
func ParseRequest(data []byte) (Request, error) {
	var req Request
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return Request{}, syntaxError(data, i, "want a JSON object")
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		i++
	} else {
		for {
			member, end := parseKey(data, i)
			if end < 0 {
				return Request{}, syntaxError(data, i, "want a member name")
			}
			if member == memberUnknown {
				return Request{}, fmt.Errorf("qosd: parsing request: unknown field %s", string(data[i:end]))
			}
			if i = skipSpace(data, end); i == len(data) || data[i] != ':' {
				return Request{}, syntaxError(data, i, "want ':'")
			}
			i = skipSpace(data, i+1)
			if end = i + len("null"); end <= len(data) && string(data[i:end]) == "null" {
				i = end
			} else if end = numberEnd(data, i); end < 0 {
				return Request{}, syntaxError(data, i, "want a number or null")
			} else if member == memberItem {
				item, ok := parseInt(data[i:end])
				if !ok {
					return Request{}, fmt.Errorf("qosd: parsing request: item %s is not an integer", string(data[i:end]))
				}
				req.Item, i = item, end
			} else {
				deadline, err := strconv.ParseFloat(string(data[i:end]), 64)
				if err != nil {
					return Request{}, fmt.Errorf("qosd: parsing request: deadline_in: %w", err)
				}
				req.DeadlineIn, i = deadline, end
			}
			if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
				i = skipSpace(data, i+1)
				continue
			}
			if i < len(data) && data[i] == '}' {
				i++
				break
			}
			return Request{}, syntaxError(data, i, "want ',' or '}'")
		}
	}
	if skipSpace(data, i) != len(data) {
		return Request{}, errors.New("qosd: trailing data after request object")
	}
	if req.Item < 1 {
		return Request{}, fmt.Errorf("qosd: item %d not positive", req.Item)
	}
	if req.DeadlineIn < 0 || math.IsNaN(req.DeadlineIn) || math.IsInf(req.DeadlineIn, 0) {
		return Request{}, fmt.Errorf("qosd: invalid deadline_in %g", req.DeadlineIn)
	}
	return req, nil
}

// syntaxError reports malformed JSON at offset i.
func syntaxError(data []byte, i int, want string) error {
	if i >= len(data) {
		return fmt.Errorf("qosd: parsing request: unexpected end of body: %s", want)
	}
	return fmt.Errorf("qosd: parsing request: invalid character %q at offset %d: %s", data[i], i, want)
}

// skipSpace returns the offset of the first non-whitespace byte at or after
// i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// parseKey reads the JSON string starting at data[i] and reports which
// member it names and the offset just past its closing quote; end is -1
// when no well-formed string starts there. The key is matched rune by rune
// as encoding/json matches it: unescaped (an unpaired surrogate escape and
// invalid UTF-8 each read as U+FFFD), then folded by foldRune.
//
//qos:hotpath
func parseKey(data []byte, i int) (member, end int) {
	if i == len(data) || data[i] != '"' {
		return memberUnknown, -1
	}
	item, deadline := true, true // the key still matches that name
	n := 0                       // runes read
	for i++; i < len(data); n++ {
		var r rune
		switch c := data[i]; {
		case c == '"':
			switch {
			case item && n == len(itemName):
				return memberItem, i + 1
			case deadline && n == len(deadlineName):
				return memberDeadline, i + 1
			}
			return memberUnknown, i + 1
		case c < ' ':
			return memberUnknown, -1
		case c == '\\':
			if r, i = unescape(data, i); i < 0 {
				return memberUnknown, -1
			}
		case c < utf8.RuneSelf:
			r, i = rune(c), i+1
		default:
			var size int
			r, size = utf8.DecodeRune(data[i:])
			i += size
		}
		r = foldRune(r)
		item = item && n < len(itemName) && r == rune(itemName[n])
		deadline = deadline && n < len(deadlineName) && r == rune(deadlineName[n])
	}
	return memberUnknown, -1
}

// unescape reads the escape sequence starting at data[i] (a backslash)
// and returns the rune it stands for and the offset after it; next is -1
// for a malformed escape. A high surrogate escape directly followed by a
// low one reads as the pair's rune; any other surrogate as U+FFFD.
func unescape(data []byte, i int) (r rune, next int) {
	if i+1 >= len(data) {
		return 0, -1
	}
	switch data[i+1] {
	case '"', '\\', '/':
		return rune(data[i+1]), i + 2
	case 'b':
		return '\b', i + 2
	case 'f':
		return '\f', i + 2
	case 'n':
		return '\n', i + 2
	case 'r':
		return '\r', i + 2
	case 't':
		return '\t', i + 2
	case 'u':
		if r = hex4(data, i+2); r < 0 {
			return 0, -1
		}
		if i += 6; !utf16.IsSurrogate(r) {
			return r, i
		}
		if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
			if pair := utf16.DecodeRune(r, hex4(data, i+2)); pair != unicode.ReplacementChar {
				return pair, i + 6
			}
		}
		return unicode.ReplacementChar, i
	}
	return 0, -1
}

// hex4 reads the four hex digits at data[i:i+4], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// foldRune folds one key rune as encoding/json does before matching a
// field name: an ASCII letter to upper case, any other non-ASCII rune to
// the smallest rune of its case-fold orbit (so the Kelvin sign reads
// as K).
func foldRune(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		next := unicode.SimpleFold(r)
		if next <= r {
			return next
		}
		r = next
	}
}

// numberEnd returns the offset just past the JSON number starting at
// data[i] (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), or -1 when
// none starts there.
func numberEnd(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digitsEnd(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i = digitsEnd(data, i+1); data[i-1] == '.' {
			return -1
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		start := i
		if i = digitsEnd(data, i); i == start {
			return -1
		}
	}
	return i
}

// digitsEnd returns the offset of the first non-digit at or after i.
func digitsEnd(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// parseInt reads a JSON number literal as an int, as encoding/json's
// strconv.ParseInt does: ok is false for a fraction or exponent and for a
// value outside int's range.
func parseInt(lit []byte) (n int, ok bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++ // |math.MinInt|
	}
	var u uint64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if u > (limit-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return -int(u), true // int(u) wraps |math.MinInt| to math.MinInt, its own negation
	}
	return int(u), true
}
