package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"atm/internal/race"
	"atm/internal/state"
)

// oracleBatch is the decoder the wire parser replaced and is checked
// against: encoding/json, unknown fields refused, into a fresh value.
func oracleBatch(body []byte) (BatchRequest, error) {
	var req BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func oracleSamples(body []byte) (SamplesRequest, error) {
	var req SamplesRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// normTicks maps empty slices to nil: the oracle tells "[]" from null
// or absent, the wire decoder (which reuses capacity) does not, and no
// consumer does either.
func normTicks(ts []Tick) []Tick {
	if len(ts) == 0 {
		return nil
	}
	out := make([]Tick, len(ts))
	for i, t := range ts {
		if len(t.CPU) > 0 {
			out[i].CPU = append([]float64(nil), t.CPU...)
		}
		if len(t.RAM) > 0 {
			out[i].RAM = append([]float64(nil), t.RAM...)
		}
	}
	return out
}

func normMeta(m *state.BoxMeta) *state.BoxMeta {
	if m == nil {
		return nil
	}
	c := *m
	if len(c.VMs) == 0 {
		c.VMs = nil
	}
	return &c
}

func normBatch(r BatchRequest) BatchRequest {
	var out BatchRequest
	for _, e := range r.Boxes {
		out.Boxes = append(out.Boxes, BatchEntry{ID: e.ID, Box: normMeta(e.Box), Samples: normTicks(e.Samples)})
	}
	return out
}

func normSamples(r SamplesRequest) SamplesRequest {
	return SamplesRequest{Box: normMeta(r.Box), Samples: normTicks(r.Samples)}
}

// bitEqual is reflect.DeepEqual with floats compared by bits, so that
// -0 != 0 and the comparison is as strict as the claim.
func bitEqual(a, b any) bool {
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return reflect.DeepEqual(a, b) && bytes.Equal(ja, jb)
}

// metaLessBody is the steady-state request shape: boxes × ticks, vms
// values per array, two-decimal readings, no box meta.
func metaLessBody(boxes, nticks, vms int) []byte {
	req := BatchRequest{}
	for b := 0; b < boxes; b++ {
		e := BatchEntry{ID: fmt.Sprintf("box-%04d", b), Samples: ticks(vms, nticks, float64(b))}
		for k := range e.Samples {
			for v := 0; v < vms; v++ {
				e.Samples[k].CPU[v] = math.Round((e.Samples[k].CPU[v]*1.37+float64(v)*0.11)*100) / 100
				e.Samples[k].RAM[v] = math.Round((e.Samples[k].RAM[v]*0.73+float64(v)*0.29)*100) / 100
			}
		}
		req.Boxes = append(req.Boxes, e)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// wireSeeds are the fuzz corpus and the backbone of the table test:
// bodies of both routes, valid and not.
var wireSeeds = []string{
	// canonical, with meta
	`{"boxes":[{"id":"b1","box":{"id":"b1","cpu_cap_ghz":10,"ram_cap_gb":64,"vms":[{"id":"v0","cpu_cap_ghz":2,"ram_cap_gb":8}]},"samples":[{"cpu":[12.5],"ram":[40.25]}]}]}`,
	// reordered keys
	`{"boxes":[{"samples":[{"ram":[1,2],"cpu":[3,4]}],"box":{"vms":[{"ram_cap_gb":8,"id":"v0","cpu_cap_ghz":2}],"ram_cap_gb":64,"cpu_cap_ghz":10,"id":"b1"},"id":"b1"}]}`,
	// whitespace-heavy
	" {\n\t\"boxes\" : [ {\r\n \"id\" : \"b1\" , \"samples\" : [ { \"cpu\" : [ 1 , 2 ] , \"ram\" : [ 3 , 4 ] } , { } ] } , { } ] } \n",
	// ticks with absent keys, landing in slots the bodies above filled
	`{"boxes":[{"id":"b1","samples":[{},{"cpu":[5]},{"ram":[6]}]}]}`,
	// escaped and non-ASCII ids, escaped key
	`{"boxes":[{"id":"b\u00e9\n\"x\"","samples":[]},{"\u0069d":"é-box","samples":null}]}`,
	// exponent forms, negative zero, leading-zero fractions
	`{"boxes":[{"id":"e","samples":[{"cpu":[1e2,1E+2,1.5e-3,-0,0.0,-0.0e0,2.5E22,1e23,123456789012345678],"ram":[0.000001,1e-7,4.9e-324,1e-400,1.7976931348623157e308,0.1,0.30000000000000004,100]}]}]}`,
	// huge mantissas
	`{"boxes":[{"id":"m","samples":[{"cpu":[12345678901234567890123456789,0.12345678901234567890123456789,9007199254740993,9007199254740992.5],"ram":[3.141592653589793238462643383279,18446744073709551616,99999999999999999999e-20,1.00000000000000011102230246251565404236316680908203125]}]}]}`,
	// empty shapes
	`{}`, `{"boxes":[]}`, `{"boxes":null}`, `{"boxes":[{}]}`, `{"boxes":[{"id":"x","samples":[{"cpu":[],"ram":null}]}]}`,
	// samples route
	`{"box":{"id":"b1","cpu_cap_ghz":10,"ram_cap_gb":64,"vms":[{"id":"v0"}]},"samples":[{"cpu":[1],"ram":[2]}]}`,
	`{"samples":null}`, `{"samples":[{"cpu":[1.25,2.5],"ram":[3,4]}]}`,
	// rejected by both
	`{"nope":1}`, `{"boxes":[{"id":"x","extra":true}]}`, `{"boxes":[{"samples":[{"cpu":[1,],"ram":[]}]}]}`,
	`{"boxes":[{"samples":[{"cpu":[01]}]}]}`, `{"boxes":[{"samples":[{"cpu":[1.]}]}]}`, `{"boxes":[{"samples":[{"cpu":[.5]}]}]}`,
	`{"boxes":[{"samples":[{"cpu":[+1]}]}]}`, `{"boxes":[{"samples":[{"cpu":[1e]}]}]}`, `{"boxes":[{"samples":[{"cpu":[1e999]}]}]}`,
	`{"boxes":[{"samples":[{"cpu":[NaN]}]}]}`, `{"boxes":[{"samples":[{"cpu":["1"]}]}]}`, `{"boxes":[{"id":"a\qb"}]}`,
	"{\"boxes\":[{\"id\":\"a\x01b\"}]}", `{"boxes":[{"id":7}]}`, `{"boxes":{}}`, `[]`, ``, ` `, `nul`, `{"boxes":[{"id":"x"`,
	`{"boxes":[{"id":"x","samples":[{"cpu":[1,2],"ram":[3,4]}`, `{"boxes":[{"id":"unterminated`, `{"boxes":[{"id":"x"},]}`, `{"boxes":[{"id":"x",}]}`,
}

// wireTightened are valid for encoding/json and refused by the wire
// grammar: the documented tightenings (duplicate key, case-folded key,
// null for an object, string or number, trailing data).
var wireTightened = []string{
	`{"boxes":[],"boxes":[]}`, `{"boxes":[{"id":"a","id":"b"}]}`, `{"boxes":[{"samples":[{"cpu":[1],"cpu":[2]}]}]}`,
	`{"Boxes":[]}`, `{"boxes":[{"ID":"x"}]}`, `{"boxes":[{"samples":[{"CPU":[1]}]}]}`,
	`null`, `{"boxes":[null]}`, `{"boxes":[{"id":null}]}`, `{"boxes":[{"box":null}]}`, `{"boxes":[{"samples":[null]}]}`,
	`{"boxes":[{"samples":[{"cpu":[null]}]}]}`, `{"boxes":[{"box":{"cpu_cap_ghz":null}}]}`, `{"boxes":[{"box":{"vms":[null]}}]}`,
	`{"boxes":[]} x`, `{"boxes":[]}{}`, `{"boxes":[]}]`, "{\"boxes\":[]}\x00",
}

// checkAgainstOracle is the differential property, on both request
// shapes: wire accepts ⇒ the oracle accepts and stores the same value;
// oracle rejects ⇒ wire rejects. The wire side decodes into sc's
// reused request values, as the handlers do, so whatever an earlier
// body left in the scratch is part of the test. It returns whether wire
// accepted the body as a batch.
func checkAgainstOracle(t *testing.T, sc *ingestScratch, body []byte) bool {
	t.Helper()
	d, batch, samples := &sc.dec, &sc.batch, &sc.samples
	wireErr := d.decodeBatch(body, batch)
	want, oracleErr := oracleBatch(body)
	switch {
	case wireErr == nil && oracleErr != nil:
		t.Fatalf("batch %q: wire accepted what encoding/json rejects (%v)", body, oracleErr)
	case wireErr == nil && !bitEqual(normBatch(*batch), normBatch(want)):
		t.Fatalf("batch %q:\nwire   %+v\noracle %+v", body, normBatch(*batch), normBatch(want))
	}
	wireErrS := d.decodeSamples(body, samples)
	wantS, oracleErrS := oracleSamples(body)
	switch {
	case wireErrS == nil && oracleErrS != nil:
		t.Fatalf("samples %q: wire accepted what encoding/json rejects (%v)", body, oracleErrS)
	case wireErrS == nil && !bitEqual(normSamples(*samples), normSamples(wantS)):
		t.Fatalf("samples %q:\nwire   %+v\noracle %+v", body, normSamples(*samples), normSamples(wantS))
	}
	return wireErr == nil
}

// TestWireDecodeSeeds runs the differential property over the corpus
// and pins which side of the line each documented case falls on.
func TestWireDecodeSeeds(t *testing.T) {
	var sc ingestScratch
	d := &sc.dec
	accepted := 0
	for _, s := range wireSeeds {
		if checkAgainstOracle(t, &sc, []byte(s)) {
			accepted++
		}
	}
	if accepted < 10 {
		t.Fatalf("only %d seeds accepted: the corpus no longer exercises the accept path", accepted)
	}
	for _, s := range wireTightened {
		if checkAgainstOracle(t, &sc, []byte(s)) {
			t.Errorf("%s: accepted, want the documented 400", s)
		}
		if _, err := oracleBatch([]byte(s)); err != nil {
			t.Errorf("%s: encoding/json rejects it too (%v): not a tightening", s, err)
		}
	}
	for _, tc := range []struct {
		body string
		ok   bool
		msg  string // substring of the error
	}{
		{`{"boxes":[{"id":"b1","samples":null}]}`, true, ""},
		{` {"boxes":[]} ` + "\n", true, ""},
		{`{"nope":1}`, false, `unknown field "nope" at byte 1`},
		{`{"boxes":[],"boxes":[]}`, false, `duplicate field "boxes" at byte 12`},
		{`{"Boxes":[]}`, false, `unknown field "Boxes"`},
		{`{"boxes":[{"id":null}]}`, false, "expected a string at byte 16"},
		{`{"boxes":[null]}`, false, "expected an object at byte 10"},
		{`{"boxes":[]} x`, false, "trailing data after the request object at byte 13"},
		{`{"boxes":[{"samples":[{"cpu":[1e999]}]}]}`, false, "invalid number at byte 30"},
		{`{"boxes":[{"samples":[{"cpu":[1 2]}]}]}`, false, "expected ',' or ']' in an array at byte 32"},
	} {
		var req BatchRequest
		err := d.decodeBatch([]byte(tc.body), &req)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.body, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: err = %q, want it to contain %q", tc.body, err, tc.msg)
		}
	}
}

// FuzzIngestDecode holds the differential property over arbitrary
// bytes. Each input is decoded into a scratch that a fixed, wider
// request has just been through, so stale pooled state is in play and a
// failure still reproduces from its one input.
func FuzzIngestDecode(f *testing.F) {
	for _, s := range append(wireSeeds, wireTightened...) {
		f.Add([]byte(s))
	}
	f.Add(metaLessBody(2, 3, 2))
	dirty := []byte(`{"boxes":[` + strings.Repeat(wireSeeds[0][len(`{"boxes":[`):len(wireSeeds[0])-2]+",", 3) + `{"id":"z","samples":[{"cpu":[1,2,3],"ram":[4,5,6]},{"cpu":[7],"ram":[8]}]}]}`)
	samplesDirty := []byte(`{"box":{"id":"q","vms":[{"id":"v"}]},"samples":[{"cpu":[1,2,3],"ram":[4,5,6]},{"cpu":[7],"ram":[8]}]}`)
	f.Fuzz(func(t *testing.T, body []byte) {
		var sc ingestScratch
		if err := sc.dec.decodeBatch(dirty, &sc.batch); err != nil {
			t.Fatal(err)
		}
		if err := sc.dec.decodeSamples(samplesDirty, &sc.samples); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, &sc, body)
	})
}

// TestWireDecodeRandomBodies is the differential test on well-formed
// traffic: random fleets marshalled by encoding/json (compact and
// indented) must decode to exactly what encoding/json decodes, through
// one reused scratch.
func TestWireDecodeRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc ingestScratch
	for n := 0; n < 300; n++ {
		var req BatchRequest
		for b := rng.Intn(5); b > 0; b-- {
			vms := 1 + rng.Intn(4)
			e := BatchEntry{ID: fmt.Sprintf("box-%d", rng.Intn(50))}
			if rng.Intn(3) == 0 {
				m := boxMeta(e.ID, vms)
				e.Box = &m
			}
			for k := rng.Intn(4); k > 0; k-- {
				tk := Tick{}
				for v := 0; v < vms; v++ {
					tk.CPU = append(tk.CPU, randomFloat(rng))
					tk.RAM = append(tk.RAM, math.Round(rng.Float64()*10000)/100)
				}
				e.Samples = append(e.Samples, tk)
			}
			req.Boxes = append(req.Boxes, e)
		}
		body, err := json.Marshal(req)
		if n%2 == 1 {
			body, err = json.MarshalIndent(req, " ", "\t")
		}
		if err != nil {
			t.Fatal(err)
		}
		if !checkAgainstOracle(t, &sc, body) {
			t.Fatalf("wire rejected a marshalled request: %s", body)
		}
	}
}

// randomFloat draws a finite float64 from the families the number path
// distinguishes: short decimals, integers, full-precision values,
// subnormals and the extremes.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return math.Round(rng.Float64()*10000) / 100
	case 1:
		return float64(rng.Int63n(1 << 54))
	case 2:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	case 3:
		return math.Float64frombits(rng.Uint64() >> 12) // subnormal
	case 4:
		return math.MaxFloat64 * rng.Float64()
	default:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

// TestParseNumberMatchesStrconv is the number-path property: on every
// token of the JSON number grammar parseNumber returns the bits
// strconv.ParseFloat returns, and fails exactly when it overflows.
func TestParseNumberMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(tok string) {
		t.Helper()
		// A following byte proves the parser stops by itself.
		got, next, ok := parseNumber([]byte(tok+","), 0)
		want, err := strconv.ParseFloat(tok, 64)
		if ok != (err == nil) {
			t.Fatalf("%s: ok=%v, strconv err=%v", tok, ok, err)
		}
		if !ok {
			return
		}
		if next != len(tok) {
			t.Fatalf("%s: stopped at %d, want %d", tok, next, len(tok))
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %x (%v), want %x (%v)", tok, math.Float64bits(got), got, math.Float64bits(want), want)
		}
	}
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.0", "1", "-1", "0.1", "0.30000000000000004", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740993e1", "4503599627370497.5",
		"123456789012345678", "1234567890123456789", "12345678901234567890", "0.000000000000000000001234",
		"4.9e-324", "2.4e-324", "2.5e-324", "1e-400", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"1.7976931348623157e308", "1.7976931348623159e308", "1e309", "-1e309", "1e99999999999999999999", "1e-99999999999999999999",
		"0e99999999999", "100000000000000000000000000000000000000000", "0." + strings.Repeat("0", 400) + "1",
		strings.Repeat("9", 400), "1" + strings.Repeat("0", 308), "1" + strings.Repeat("0", 309),
	} {
		check(tok)
	}
	for n := 0; n < 200000; n++ {
		f := randomFloat(rng)
		switch n % 5 {
		case 0: // shortest round-trip form, as encoding/json writes it
			check(strconv.FormatFloat(f, 'g', -1, 64))
		case 1: // 17 significant digits, exponent form
			check(strconv.FormatFloat(f, 'e', 16, 64))
		case 2: // plain decimal, what an agent's printf("%.2f") sends
			check(strconv.FormatFloat(math.Mod(f, 1e6), 'f', rng.Intn(8), 64))
		case 3: // digits × power of ten around the fast path's edges
			check(fmt.Sprintf("%d.%0*de%d", rng.Int63n(1<<20), 1+rng.Intn(12), rng.Int63n(1e12)%int64(math.Pow10(1+rng.Intn(11))), rng.Intn(60)-30))
		default: // overflow and underflow neighbourhoods
			check(fmt.Sprintf("%de%d", 1+rng.Int63n(1<<40), []int{290, 300, 308, -320, -330, -340}[rng.Intn(6)]+rng.Intn(12)))
		}
	}
	// The grammar: not a number at all.
	for _, tok := range []string{"", "-", "+1", ".5", "1.", "1.e2", "1e", "1e+", "e5", "-e", "Infinity", "NaN", "0x10", "--1"} {
		if _, _, ok := parseNumber([]byte(tok), 0); ok && tok != "0x10" {
			t.Errorf("%q parsed as a number", tok)
		}
	}
	// "0x10" and "01" are a valid "0" followed by garbage: the parser
	// stops after the zero and the caller's delimiter check rejects.
	if _, next, ok := parseNumber([]byte("01"), 0); !ok || next != 1 {
		t.Errorf(`"01": next=%d ok=%v, want the parser to stop after "0"`, next, ok)
	}
}

// TestIngestDecodeAllocFree is the steady-state gate: decoding a
// meta-less 16-box × 24-tick body into a warmed scratch allocates
// nothing — not for entries, ticks, values, nor for ids it has seen.
func TestIngestDecodeAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	body := metaLessBody(16, 24, 10)
	var sc ingestScratch
	if err := sc.dec.decodeBatch(body, &sc.batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := sc.dec.decodeBatch(body, &sc.batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decodeBatch on a warmed scratch: %v allocs/op, want 0", allocs)
	}
	want, _ := oracleBatch(body)
	if !bitEqual(normBatch(sc.batch), normBatch(want)) {
		t.Fatal("warmed decode differs from encoding/json")
	}
}

// TestIngestResponseMatchesEncodingJSON pins the hand-written response
// writers to the bytes json.Encoder produced before them.
func TestIngestResponseMatchesEncodingJSON(t *testing.T) {
	results := []BatchBoxResult{
		{Box: "b1", Total: 42},
		{Box: "ghost", Error: `"ghost": state: unknown box`},
		{Box: "", Error: "entry missing box id"},
		{Box: "é<&>\u2028\x01\xff", Total: 1, Error: "a\\b\tc"},
		{Box: "zero"},
	}
	for n := 0; n <= len(results); n++ {
		var want bytes.Buffer
		resp := BatchResponse{Accepted: 7 * n, Failed: n / 2, Boxes: results[:n]}
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got := appendBatchResponse(nil, resp.Accepted, resp.Failed, resp.Boxes)
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("batch response:\n got %s\nwant %s", got, want.Bytes())
		}
	}
	for _, id := range []string{"b1", `we"ird`, "é"} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"box": id, "total": 9, "accepted": 3}); err != nil {
			t.Fatal(err)
		}
		if got := appendSamplesResponse(nil, id, 9, 3); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("samples response:\n got %s\nwant %s", got, want.Bytes())
		}
	}
}

var benchSink int

// BenchmarkIngestDecode times one backfill-shaped body (16 boxes × 24
// ticks × 10 VMs, ~50 KB) through the wire decoder and through the
// encoding/json path it replaced, both into warmed, reused values.
func BenchmarkIngestDecode(b *testing.B) {
	body := metaLessBody(16, 24, 10)
	b.Run("wire", func(b *testing.B) {
		var sc ingestScratch
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sc.dec.decodeBatch(body, &sc.batch); err != nil {
				b.Fatal(err)
			}
			benchSink += len(sc.batch.Boxes)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		var req BatchRequest
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range req.Boxes {
				req.Boxes[j] = BatchEntry{}
			}
			req.Boxes = req.Boxes[:0]
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				b.Fatal(err)
			}
			benchSink += len(req.Boxes)
		}
	})
}
