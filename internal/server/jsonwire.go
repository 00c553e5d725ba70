package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The JSON of the hot paths — POST /v1/queries, which every request
// takes, its 307, and a GET /v1/history page (histpage.go) — is parsed
// and appended by hand rather than reflected over: the bytes and the
// verdicts are encoding/json's, at a fraction of the cost. QueryRequest
// and QueryResponse stay the wire types clients marshal and decode.

// decodeRequest decodes body into sc.req with json.Unmarshal's verdict
// and result. A body in the canonical form — an object holding the
// eight keys spelled exactly, each at most once, strings of plain
// printable ASCII and JSON numbers, ints without fraction, exponent or
// overflow — is scanned in place; any other (escapes, non-ASCII,
// case-folded or unknown keys, null, a duplicate key, a syntax error)
// goes to json.Unmarshal into the reset request.
func (sc *serveScratch) decodeRequest(body []byte) error {
	if scanRequest(&sc.req, body) {
		return nil
	}
	sc.req.reset()
	return json.Unmarshal(body, &sc.req)
}

// scanRequest decodes a canonical body into r and reports whether it
// was one. The names it holds from the last request are reused when
// they repeat, so a steady stream of submissions allocates nothing.
func scanRequest(r *QueryRequest, body []byte) bool {
	fed, query, strategy := r.Federation, r.Query, r.Strategy
	r.reset()
	s := reqScanner{b: body}
	if !s.next('{') {
		return false
	}
	for seen := uint8(0); !s.next('}'); {
		if seen != 0 && !s.next(',') {
			return false
		}
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		var bit uint8
		switch string(key) {
		case "federation":
			bit, ok = 1<<0, s.name(&r.Federation, fed)
		case "query":
			bit, ok = 1<<1, s.name(&r.Query, query)
		case "weights":
			bit = 1 << 2
			r.Weights, ok = s.floats(r.Weights)
		case "constraints":
			bit = 1 << 3
			r.Constraints, ok = s.floats(r.Constraints)
		case "strategy":
			bit, ok = 1<<4, s.name(&r.Strategy, strategy)
		case "lex_order":
			bit = 1 << 5
			r.LexOrder, ok = s.ints(r.LexOrder)
		case "lex_tolerance":
			bit = 1 << 6
			r.LexTolerance, ok = s.float()
		case "timeout_ms":
			bit = 1 << 7
			r.TimeoutMS, ok = s.integer(64)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	s.space()
	return s.i == len(s.b)
}

// reqScanner reads the canonical request grammar from b at i.
type reqScanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *reqScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c if it is the next byte after whitespace.
func (s *reqScanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of plain printable ASCII (no escape) and
// returns its contents, aliasing b.
func (s *reqScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// name consumes a string into *dst, reusing prev when it repeats.
func (s *reqScanner) name(dst *string, prev string) bool {
	v, ok := s.str()
	*dst = reuse(prev, v)
	return ok
}

// number consumes a JSON number token.
func (s *reqScanner) number() (tok []byte, ok bool) {
	s.space()
	b, i := s.b, s.i
	digits := func() int {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i - start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		digits()
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false
		}
	}
	tok, s.i = b[s.i:i], i
	return tok, true
}

// float consumes a number as encoding/json decodes a float64; one out
// of range is not canonical.
func (s *reqScanner) float() (float64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// integer consumes a number as encoding/json decodes an int of bits:
// one with a fraction or an exponent, or out of range, is not
// canonical.
func (s *reqScanner) integer(bits int) (int64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, bits)
	return n, err == nil
}

// item steps through an array before its n-th element: it consumes
// the '[' (n = 0) or the ',' in front of an element and reports that
// one follows, or consumes the ']' and reports that none does.
func (s *reqScanner) item(n int) (more, ok bool) {
	if n == 0 && !s.next('[') {
		return false, false
	}
	if s.next(']') {
		return false, true
	}
	ok = n == 0 || s.next(',')
	return ok, ok
}

// floats consumes an array of numbers into dst's storage.
func (s *reqScanner) floats(dst []float64) ([]float64, bool) {
	for dst = dst[:0]; ; {
		more, ok := s.item(len(dst))
		if !more {
			return dst, ok
		}
		f, ok := s.float()
		if !ok {
			return dst, false
		}
		dst = append(dst, f)
	}
}

// ints consumes an array of integral numbers into dst's storage.
func (s *reqScanner) ints(dst []int) ([]int, bool) {
	for dst = dst[:0]; ; {
		more, ok := s.item(len(dst))
		if !more {
			return dst, ok
		}
		n, ok := s.integer(strconv.IntSize)
		if !ok {
			return dst, false
		}
		dst = append(dst, int(n))
	}
}

// appendQueryResponse appends r exactly as json.NewEncoder(w).Encode(r)
// writes it, trailing newline included. A NaN or ±Inf, which JSON
// cannot carry, is an error naming the field.
func appendQueryResponse(b []byte, r *QueryResponse) ([]byte, error) {
	b = append(b, `{"federation":`...)
	b = appendJSONString(b, r.Federation)
	b = append(b, `,"query":`...)
	b = appendJSONString(b, r.Query)
	b = append(b, `,"plan":{"query":`...)
	b = appendJSONString(b, r.Plan.Query)
	b = append(b, `,"join_at_left":`...)
	b = strconv.AppendBool(b, r.Plan.JoinAtLeft)
	b = append(b, `,"nodes_left":`...)
	b = strconv.AppendInt(b, int64(r.Plan.NodesLeft), 10)
	b = append(b, `,"nodes_right":`...)
	b = strconv.AppendInt(b, int64(r.Plan.NodesRight), 10)
	b = append(b, '}')
	var err error
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"estimated_time_s", r.EstimatedTimeS},
		{"estimated_usd", r.EstimatedUSD},
		{"measured_time_s", r.MeasuredTimeS},
		{"measured_usd", r.MeasuredUSD},
	} {
		if b, err = appendFloatField(b, f.name, f.v); err != nil {
			return nil, err
		}
	}
	b = append(b, `,"pareto_size":`...)
	b = strconv.AppendInt(b, int64(r.ParetoSize), 10)
	b = append(b, `,"plan_space":`...)
	b = strconv.AppendInt(b, int64(r.PlanSpace), 10)
	b = append(b, `,"plans_estimated":`...)
	b = strconv.AppendInt(b, int64(r.PlansEstimated), 10)
	b = append(b, `,"coalesced":`...)
	b = strconv.AppendBool(b, r.Coalesced)
	if b, err = appendFloatField(b, "latency_ms", r.LatencyMS); err != nil {
		return nil, err
	}
	if r.Node != "" {
		b = append(b, `,"node":`...)
		b = appendJSONString(b, r.Node)
	}
	if r.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendUint(b, r.Epoch, 10)
	}
	return append(b, "}\n"...), nil
}

// appendFloatField appends `,"name":f`, or fails naming the field.
func appendFloatField(b []byte, name string, f float64) ([]byte, error) {
	b = append(append(append(b, ',', '"'), name...), '"', ':')
	b, ok := appendJSONFloat(b, f)
	if !ok {
		return nil, fmt.Errorf("%s is %v, which JSON cannot carry", name, f)
	}
	return b, nil
}

// appendErrorBody appends ErrorResponse{Error: msg} as
// json.NewEncoder(w).Encode writes it.
func appendErrorBody[S string | []byte](b []byte, msg S) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	return append(b, "}\n"...)
}

// appendJSONFloat appends f exactly as encoding/json writes a float64 —
// the shortest round-trip digits in 'f' format, or in 'e' format below
// 1e-6 and from 1e21 up, with a one-digit negative exponent unpadded
// (e-07 → e-7) — and reports false for NaN and ±Inf, which JSON cannot
// carry. An integer below 2⁵³ in magnitude is written by AppendInt,
// which prints the same digits faster; −0 is not one ('f' writes "-0").
func appendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if f > -(1<<53) && f < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10), true
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted exactly as encoding/json writes a
// string, HTML escaping included: '"' and '\\' backslashed; \b, \f, \n,
// \r and \t by name; any other control byte and '<', '>', '&' as
// \u00XX; a byte that is not UTF-8 as \ufffd; U+2028 and U+2029 as
// \u2028 and \u2029. A run that needs none is copied whole.
func appendJSONString[S string | []byte](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
