package main

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"pushpull/internal/serve"
)

// The /query wire is written by hand; encoding/json is its test oracle.
//
// appendResult and appendErrorBody emit, byte for byte, the document
// json.NewEncoder with SetIndent("", "  ") makes of a serve.Result and of
// the error map {"error", "gen", "id", "partial", "result"} (keys sorted,
// as encoding/json sorts a map's): the struct tags' field order and
// omitempty rules, encoding/json's float format, the Distances null/'g'
// rule, its string escaping and the trailing newline. They do it without
// reflection, without boxing the result into an interface and without an
// indent pass, into a buffer the handler reuses. wire_test.go compares them
// with encoding/json on every payload shape; a field added to serve.Result
// or serve.Payload must be added here too. The admin endpoints keep
// encoding/json (writeJSON).

// errNotFinite is why a /query document could not be written: JSON has no
// form for an infinite or NaN float, and encoding/json refuses them too.
// The handler then answers 500, as writeJSON does.
var errNotFinite = errors.New("a float is not finite")

// appendResult appends the document for a successful query.
func appendResult(b []byte, r *serve.Result) ([]byte, error) {
	b = append(b, "{\n  \"id\": "...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = append(b, ",\n  \"graph\": "...)
	b = appendString(b, r.Graph)
	b = append(b, ",\n  \"algo\": "...)
	b = appendString(b, r.Algo)
	b = append(b, ",\n  \"source\": "...)
	b = strconv.AppendInt(b, int64(r.Source), 10)
	b = append(b, ",\n  \"gen\": "...)
	b = strconv.AppendUint(b, r.Gen, 10)
	b = append(b, ",\n  \"duration_ms\": "...)
	b, err := appendFloat(b, r.DurationMS)
	if err != nil {
		return b, err
	}
	b = append(b, ",\n  \"worker\": "...)
	b = strconv.AppendInt(b, int64(r.Worker), 10)
	if r.Partial {
		b = append(b, ",\n  \"partial\": true"...)
	}
	b = append(b, ",\n  \"result\": "...)
	if b, err = appendPayload(b, &r.Payload); err != nil {
		return b, err
	}
	return append(b, "\n}\n"...), nil
}

// appendErrorBody appends the document for a failed query: the public
// error message, the query id when it has one, and a budget trip's partial
// result with its generation.
func appendErrorBody(b []byte, msg string, r *serve.Result) ([]byte, error) {
	b = append(b, "{\n  \"error\": "...)
	b = appendString(b, msg)
	if r.Partial {
		b = append(b, ",\n  \"gen\": "...)
		b = strconv.AppendUint(b, r.Gen, 10)
	}
	if r.ID != 0 {
		b = append(b, ",\n  \"id\": "...)
		b = strconv.AppendUint(b, r.ID, 10)
	}
	if r.Partial {
		b = append(b, ",\n  \"partial\": true,\n  \"result\": "...)
		var err error
		if b, err = appendPayload(b, &r.Payload); err != nil {
			return b, err
		}
	}
	return append(b, "\n}\n"...), nil
}

// appendPayload appends a payload object at the document's second level.
func appendPayload(b []byte, p *serve.Payload) ([]byte, error) {
	b = append(b, "{\n    \"reached\": "...)
	b = strconv.AppendInt(b, int64(p.Reached), 10)
	if p.Iterations != 0 {
		b = append(b, ",\n    \"iterations\": "...)
		b = strconv.AppendInt(b, int64(p.Iterations), 10)
	}
	if p.MaxDepth != 0 {
		b = append(b, ",\n    \"max_depth\": "...)
		b = strconv.AppendInt(b, int64(p.MaxDepth), 10)
	}
	if p.Components != 0 {
		b = append(b, ",\n    \"components\": "...)
		b = strconv.AppendInt(b, int64(p.Components), 10)
	}
	b = append(b, ",\n    \"checksum\": "...)
	b = strconv.AppendUint(b, p.Checksum, 10)
	if len(p.Depths) > 0 {
		b = append(b, ",\n    \"depths\": ["...)
		for i, d := range p.Depths {
			b = strconv.AppendInt(appendElem(b, i), int64(d), 10)
		}
		b = append(b, "\n    ]"...)
	}
	if len(p.Parents) > 0 {
		b = append(b, ",\n    \"parents\": ["...)
		for i, v := range p.Parents {
			b = strconv.AppendInt(appendElem(b, i), v, 10)
		}
		b = append(b, "\n    ]"...)
	}
	if len(p.Dist) > 0 {
		// serve.Distances' own rule: null for a distance that is not
		// finite, 'g' otherwise.
		b = append(b, ",\n    \"dist\": ["...)
		for i, d := range p.Dist {
			b = appendElem(b, i)
			if math.IsInf(d, 0) || math.IsNaN(d) {
				b = append(b, "null"...)
			} else {
				b = strconv.AppendFloat(b, d, 'g', -1, 64)
			}
		}
		b = append(b, "\n    ]"...)
	}
	if len(p.Ranks) > 0 {
		b = append(b, ",\n    \"ranks\": ["...)
		for i, r := range p.Ranks {
			var err error
			if b, err = appendFloat(appendElem(b, i), r); err != nil {
				return b, err
			}
		}
		b = append(b, "\n    ]"...)
	}
	if len(p.Labels) > 0 {
		b = append(b, ",\n    \"labels\": ["...)
		for i, l := range p.Labels {
			b = strconv.AppendUint(appendElem(b, i), uint64(l), 10)
		}
		b = append(b, "\n    ]"...)
	}
	return append(b, "\n  }"...), nil
}

// appendElem starts array element i at the document's third level.
func appendElem(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return append(b, "\n      "...)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, 'e' below 1e-6 and from 1e21 on, with a one-digit negative
// exponent unpadded (1e-7, not 1e-07). Infinities and NaN have no JSON
// form.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errNotFinite
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
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// its default HTML escaping: ", \ and the control bytes escaped (\b, \f,
// \n, \r and \t by name), <, > and & as \u00XX, invalid UTF-8 as \ufffd,
// and U+2028/U+2029 escaped.
func appendString(b []byte, s string) []byte {
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
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
