package serve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"atm/internal/state"
)

// The ingest wire grammar. Both ingest routes are decoded by the
// hand-written single-pass parser in this file, not by encoding/json:
// at fleet scale the reflection-driven decoder owned ~90% of the
// server's CPU on cold-start backfill. The parser accepts RFC 8259
// JSON restricted to the two request shapes
//
//	/v1/ingest:            {"boxes": [ENTRY, ...]}
//	ENTRY:                 {"id": STRING, "box": META, "samples": [TICK, ...]}
//	/v1/boxes/{id}/samples {"box": META, "samples": [TICK, ...]}
//	TICK:                  {"cpu": [NUMBER, ...], "ram": [NUMBER, ...]}
//	META:                  {"id": STRING, "cpu_cap_ghz": NUMBER,
//	                        "ram_cap_gb": NUMBER, "vms": [VM, ...]}
//	VM:                    {"id": STRING, "cpu_cap_ghz": NUMBER, "ram_cap_gb": NUMBER}
//
// with keys in any order and every key optional (an absent key leaves
// the zero value, as encoding/json does). Everything the parser accepts
// encoding/json with DisallowUnknownFields accepts too, with the same
// value (FuzzIngestDecode holds that); it is deliberately stricter in
// these places, each answered 400 with a byte offset:
//
//   - an unknown key (as before), and a known key in the wrong case —
//     keys match exactly, not case-folded;
//   - a duplicate key in one object (encoding/json keeps the last);
//   - null where an object, string or number is expected
//     (encoding/json ignores it). A null array is still read as an
//     empty one: it is what encoding/json emits for a nil slice of the
//     exported request types, so Go clients send it;
//   - anything but whitespace after the top-level value
//     (json.Decoder stops reading there).
//
// Numbers are bit-identical to encoding/json's: an exact fast path for
// short decimals, strconv.ParseFloat on the token otherwise.
//
// Aliasing contract: every Tick.CPU / Tick.RAM a decode produces is a
// view into the decoder's per-request arena, and the request's entry
// and tick slices are pooled with it. They are valid until the next
// decode on the same decoder — for a handler, until it returns its
// scratch to the pool. The store copies values into its rings, so
// nothing outlives the request; ids are ordinary strings and box meta
// is freshly allocated, because the store retains both on registration.

// wireError is a grammar violation at a byte offset of the body.
type wireError struct {
	off int
	msg string
}

func (e *wireError) Error() string { return e.msg + " at byte " + strconv.Itoa(e.off) }

// wireDecoder is the reusable state of the ingest parser: the body
// being scanned, the cursor, and the arena all of a request's usage
// values are parsed into.
type wireDecoder struct {
	b     []byte
	i     int
	keyAt int // offset of the field name whose value is being parsed
	arena []float64
}

// decodeBatch parses a /v1/ingest body into dst, reusing the capacity
// of dst.Boxes, of every reused entry's Samples and of the arena.
// Every field of a reused entry or tick is written or zeroed, so
// nothing of an earlier request shows through. On error dst is left in
// an unspecified state.
func (d *wireDecoder) decodeBatch(body []byte, dst *BatchRequest) error {
	d.b, d.i, d.arena = body, 0, d.arena[:0]
	dst.Boxes = dst.Boxes[:0]
	var keys uint8
	err := d.object(func(key []byte) error {
		if string(key) != "boxes" {
			return d.unknown(key)
		}
		if err := d.once(&keys, 1, key); err != nil {
			return err
		}
		return d.array(func() error {
			dst.Boxes = grow(dst.Boxes)
			e := &dst.Boxes[len(dst.Boxes)-1]
			return d.entry(&e.ID, &e.Box, &e.Samples)
		})
	})
	if err != nil {
		return err
	}
	return d.end()
}

// decodeSamples parses a /v1/boxes/{id}/samples body into dst with the
// same reuse and zeroing rules as decodeBatch.
func (d *wireDecoder) decodeSamples(body []byte, dst *SamplesRequest) error {
	d.b, d.i, d.arena = body, 0, d.arena[:0]
	if err := d.entry(nil, &dst.Box, &dst.Samples); err != nil {
		return err
	}
	return d.end()
}

// fail builds the error for a violation at the cursor.
func (d *wireDecoder) fail(msg string) error { return &wireError{off: d.i, msg: msg} }

// ws skips insignificant whitespace.
func (d *wireDecoder) ws() { d.i = skipSpace(d.b, d.i) }

// peek skips whitespace and returns the next byte, or 0 at the end of
// the body (a NUL is not valid JSON anywhere outside a string, so the
// two cases fail alike).
func (d *wireDecoder) peek() byte {
	d.ws()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// end requires that only whitespace follows the top-level value.
func (d *wireDecoder) end() error {
	if d.ws(); d.i < len(d.b) {
		return d.fail("trailing data after the request object")
	}
	return nil
}

// null consumes the literal when the cursor is on it.
func (d *wireDecoder) null() bool {
	if len(d.b)-d.i >= 4 && string(d.b[d.i:d.i+4]) == "null" {
		d.i += 4
		return true
	}
	return false
}

// object parses {"key": value, ...}, calling member with the cursor on
// each value (after the colon, whitespace skipped). member consumes the
// value, or rejects the key through unknown / once.
func (d *wireDecoder) object(member func(key []byte) error) error {
	if d.peek() != '{' {
		return d.fail("expected an object")
	}
	d.i++
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.fail("expected a field name")
		}
		d.keyAt = d.i
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.fail("expected ':' after the field name")
		}
		d.i++
		d.ws()
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.fail("expected ',' or '}' in an object")
		}
	}
}

// array parses [value, ...] or null (read as an empty array), calling
// elem with the cursor on each element.
func (d *wireDecoder) array(elem func() error) error {
	if d.peek() != '[' {
		if d.null() {
			return nil
		}
		return d.fail("expected an array")
	}
	d.i++
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.fail("expected ',' or ']' in an array")
		}
	}
}

// unknown rejects the field name object just read.
func (d *wireDecoder) unknown(key []byte) error {
	return &wireError{off: d.keyAt, msg: fmt.Sprintf("unknown field %q", key)}
}

// once marks bit in the object's set of keys met so far and rejects
// the field name object just read if it was there already.
func (d *wireDecoder) once(set *uint8, bit uint8, key []byte) error {
	if *set&bit != 0 {
		return &wireError{off: d.keyAt, msg: fmt.Sprintf("duplicate field %q", key)}
	}
	*set |= bit
	return nil
}

// entry parses one {"id", "box", "samples"} object: a batch entry, or
// with id == nil (where "id" is an unknown key) a whole samples-route
// body. *samples keeps its capacity; the other fields start from zero.
func (d *wireDecoder) entry(id *string, box **state.BoxMeta, samples *[]Tick) error {
	prevID := ""
	if id != nil {
		prevID, *id = *id, ""
	}
	*box = nil
	*samples = (*samples)[:0]
	var keys uint8
	return d.object(func(key []byte) error {
		switch {
		case string(key) == "samples":
			if err := d.once(&keys, 1, key); err != nil {
				return err
			}
			return d.array(func() error {
				*samples = grow(*samples)
				return d.tick(&(*samples)[len(*samples)-1])
			})
		case string(key) == "id" && id != nil:
			if err := d.once(&keys, 2, key); err != nil {
				return err
			}
			tok, err := d.str()
			if err != nil {
				return err
			}
			// A pooled entry usually meets the id it carried last time
			// (a client resends the same batch layout every interval):
			// keep that string instead of allocating an equal one.
			if *id = prevID; prevID != string(tok) {
				*id = string(tok)
			}
			return nil
		case string(key) == "box":
			if err := d.once(&keys, 4, key); err != nil {
				return err
			}
			// Always a fresh value: the store keeps the meta (and its
			// VMs slice) of a box's first registration.
			*box = new(state.BoxMeta)
			return d.meta(*box)
		}
		return d.unknown(key)
	})
}

// tick parses one {"cpu": [...], "ram": [...]} object into t.
func (d *wireDecoder) tick(t *Tick) error {
	t.CPU, t.RAM = nil, nil
	var keys uint8
	return d.object(func(key []byte) (err error) {
		switch string(key) {
		case "cpu":
			if err = d.once(&keys, 1, key); err == nil {
				t.CPU, err = d.floats()
			}
		case "ram":
			if err = d.once(&keys, 2, key); err == nil {
				t.RAM, err = d.floats()
			}
		default:
			err = d.unknown(key)
		}
		return err
	})
}

// floats parses an array of numbers (or null) into the arena and
// returns the view of it, capped so that an append by the holder cannot
// reach the next array's values. It is array() unrolled around
// parseNumber with the cursor in a register: this loop sees nine bytes
// in ten of a telemetry body.
func (d *wireDecoder) floats() ([]float64, error) {
	lo := len(d.arena)
	if d.peek() != '[' {
		if d.null() {
			return d.arena[lo:lo:lo], nil
		}
		return nil, d.fail("expected an array")
	}
	d.i++
	if d.peek() == ']' {
		d.i++
		return d.arena[lo:lo:lo], nil
	}
	b, i := d.b, d.i
	for {
		f, next, ok := parseNumber(b, i)
		if !ok {
			d.i = next
			return nil, d.fail("invalid number")
		}
		d.arena = append(d.arena, f)
		i = skipSpace(b, next)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		d.i = i
		if i < len(b) && b[i] == ']' {
			d.i++
			return d.arena[lo:len(d.arena):len(d.arena)], nil
		}
		return nil, d.fail("expected ',' or ']' in an array")
	}
}

// skipSpace returns the index of the first byte of b at or after i that
// is not insignificant whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// number parses one numeric field value.
func (d *wireDecoder) number() (float64, error) {
	f, next, ok := parseNumber(d.b, d.i)
	d.i = next
	if !ok {
		return 0, d.fail("invalid number")
	}
	return f, nil
}

// meta parses a box's static configuration.
func (d *wireDecoder) meta(m *state.BoxMeta) error {
	var keys uint8
	return d.object(func(key []byte) (err error) {
		switch string(key) {
		case "id":
			if err = d.once(&keys, 1, key); err == nil {
				m.ID, err = d.strField()
			}
		case "cpu_cap_ghz":
			if err = d.once(&keys, 2, key); err == nil {
				m.CPUCapGHz, err = d.number()
			}
		case "ram_cap_gb":
			if err = d.once(&keys, 4, key); err == nil {
				m.RAMCapGB, err = d.number()
			}
		case "vms":
			if err = d.once(&keys, 8, key); err == nil {
				err = d.array(func() error {
					m.VMs = append(m.VMs, state.VMMeta{})
					return d.vm(&m.VMs[len(m.VMs)-1])
				})
			}
		default:
			err = d.unknown(key)
		}
		return err
	})
}

// vm parses one VM's static configuration.
func (d *wireDecoder) vm(m *state.VMMeta) error {
	var keys uint8
	return d.object(func(key []byte) (err error) {
		switch string(key) {
		case "id":
			if err = d.once(&keys, 1, key); err == nil {
				m.ID, err = d.strField()
			}
		case "cpu_cap_ghz":
			if err = d.once(&keys, 2, key); err == nil {
				m.CPUCapGHz, err = d.number()
			}
		case "ram_cap_gb":
			if err = d.once(&keys, 4, key); err == nil {
				m.RAMCapGB, err = d.number()
			}
		default:
			err = d.unknown(key)
		}
		return err
	})
}

// strField parses a string value into a string of its own.
func (d *wireDecoder) strField() (string, error) {
	tok, err := d.str()
	return string(tok), err
}

// str parses the string the cursor is on and returns its contents. A
// string of plain printable ASCII is returned as a slice of the body;
// one with an escape, a control byte or a non-ASCII byte is handed as
// a token to encoding/json, which owns escape decoding and the
// replacement of invalid UTF-8.
func (d *wireDecoder) str() ([]byte, error) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, d.fail("expected a string")
	}
	start := d.i + 1
	for j := start; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			d.i = j + 1
			return d.b[start:j], nil
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return d.strSlow(j)
		}
	}
	d.i = len(d.b)
	return nil, d.fail("unterminated string")
}

// strSlow finishes str from the first byte the fast scan gave up on.
func (d *wireDecoder) strSlow(j int) ([]byte, error) {
	for ; j < len(d.b); j++ {
		switch d.b[j] {
		case '\\':
			j++ // the escaped byte cannot close the string
		case '"':
			var s string
			if err := json.Unmarshal(d.b[d.i:j+1], &s); err != nil {
				return nil, d.fail("invalid string")
			}
			d.i = j + 1
			return []byte(s), nil
		}
	}
	d.i = len(d.b)
	return nil, d.fail("unterminated string")
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseNumber parses the RFC 8259 number starting at b[i] and returns
// it with the index of the first byte after it; ok is false (with next
// at the offending byte) when no valid number starts there or it does
// not fit a float64. It does not look at what follows the number — the
// caller's ',' / ']' / '}' check rejects "01" or "1.5x".
//
// The value equals strconv.ParseFloat(token, 64) bit for bit, which is
// what encoding/json stores. When the decimal mantissa fits 53 bits and
// the power of ten is at most 22, mantissa and power are both exact
// float64s and one IEEE multiply or divide rounds correctly (Clinger's
// fast path, the same one strconv takes first); every other token goes
// to strconv.
func parseNumber(b []byte, i int) (f float64, next int, ok bool) {
	start := i
	neg := false
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	var (
		mant  uint64
		exp10 int    // value = mant × 10^exp10
		exact = true // no significant digit dropped from mant
		nd    int    // significant digits in mant
	)
	// Integer part: "0" or a digit run not starting with 0.
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				nd++
			} else {
				exact = false
			}
		}
	default:
		return 0, i, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i]-'0' > 9 {
			return 0, i, false
		}
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if nd < 19 {
				mant = mant*10 + uint64(b[i]-'0')
				exp10--
				if mant != 0 {
					nd++
				}
			} else {
				exact = false
			}
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i]-'0' > 9 {
			return 0, i, false
		}
		e := 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 { // far past any float64 exponent already
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if exact && mant < 1<<53 && exp10 >= -22 && exp10 <= 22 {
		f = float64(mant)
		if neg {
			f = -f
		}
		if exp10 < 0 {
			return f / pow10[-exp10], i, true
		}
		return f * pow10[exp10], i, true
	}
	// strconv copies its argument into the error instead of letting it
	// escape, so the conversion stays on the stack for ordinary tokens.
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, start, false // out of range
	}
	return f, i, true
}

// grow extends s by one element, reusing spare capacity: the element
// is whatever the slot held before, so the caller must overwrite it.
func grow[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// would write it. Ids are plain ASCII; anything needing an escape goes
// through encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&':
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendBatchResponse appends the /v1/ingest response: the bytes
// json.Encoder writes for BatchResponse{accepted, failed, results}
// (results non-nil), trailing newline included.
func appendBatchResponse(dst []byte, accepted, failed int, results []BatchBoxResult) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(accepted), 10)
	dst = append(dst, `,"failed":`...)
	dst = strconv.AppendInt(dst, int64(failed), 10)
	dst = append(dst, `,"boxes":[`...)
	for i := range results {
		r := &results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"box":`...)
		dst = appendJSONString(dst, r.Box)
		if r.Total != 0 {
			dst = append(dst, `,"total":`...)
			dst = strconv.AppendInt(dst, int64(r.Total), 10)
		}
		if r.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = appendJSONString(dst, r.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// appendSamplesResponse appends the samples-route response
// {"accepted":N,"box":ID,"total":T} and a newline.
func appendSamplesResponse(dst []byte, id string, total, accepted int) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(accepted), 10)
	dst = append(dst, `,"box":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"total":`...)
	dst = strconv.AppendInt(dst, int64(total), 10)
	return append(dst, "}\n"...)
}
