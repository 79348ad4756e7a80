package service

// Pooled request/response scratch for the serving hot path.
//
// Requests are decoded into reusable wire structs — raw works/deltas/
// speeds slices whose backing arrays survive between requests — instead
// of validated pipeline/platform objects, because the cache key only
// needs the raw numbers. The single-scan reader in decode.go fills them
// straight from the body bytes, with encoding/json's semantics and
// without its reflection; the json tags below name the wire keys and
// drive the encoding/json oracle the reader is tested against. The
// expensive constructors (prefix sums, speed orders, class tables) run
// on cache misses only, where a solve is about to dwarf them anyway.
// Responses render through pooled buffers; cached bodies carry their
// trailing newline so a hit is exactly one Write.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"unicode/utf8"
)

// pipelineWire is the raw JSON form of a pipeline.
type pipelineWire struct {
	Works  []float64 `json:"works"`
	Deltas []float64 `json:"deltas"`
}

func (pw *pipelineWire) reset() {
	pw.Works = clearFloats(pw.Works)
	pw.Deltas = clearFloats(pw.Deltas)
}

// clearFloats zeroes s up to its capacity and truncates it. The reader,
// like encoding/json, regrows a reused slice over its old backing array
// and leaves an element decoded from null untouched, so without this a
// null inside an array would read the number an earlier request left
// there — in the cache key and in the solve alike — instead of 0, as it
// does on a fresh slice.
func clearFloats(s []float64) []float64 {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// platformWire is the raw JSON form of a platform.
type platformWire struct {
	Kind      string      `json:"kind"`
	Speeds    []float64   `json:"speeds"`
	Bandwidth float64     `json:"bandwidth"`
	Links     [][]float64 `json:"links"`
}

func (pw *platformWire) reset() {
	pw.Kind = ""
	pw.Speeds = clearFloats(pw.Speeds)
	pw.Bandwidth = 0
	// Rows past len are reused too when a later body has more of them.
	links := pw.Links[:cap(pw.Links)]
	for i := range links {
		links[i] = clearFloats(links[i])
	}
	pw.Links = links[:0]
}

// solveWire is the top-level body of POST /v1/solve, decoded in one
// strict pass: the nested wire structs reuse their slice capacity across
// requests, so a warm decode allocates nothing for the numbers.
type solveWire struct {
	Pipeline  pipelineWire `json:"pipeline"`
	Platform  platformWire `json:"platform"`
	Objective string       `json:"objective"`
	Bound     float64      `json:"bound"`
	Mode      string       `json:"mode"`
	TimeoutMS int          `json:"timeout_ms"`
}

func (sw *solveWire) reset() {
	sw.Pipeline.reset()
	sw.Platform.reset()
	sw.Objective, sw.Mode = "", ""
	sw.Bound = 0
	sw.TimeoutMS = 0
}

// instanceWire is one element of a batch body: the same pipeline and
// platform wire pair as a solve body.
type instanceWire struct {
	Pipeline pipelineWire `json:"pipeline"`
	Platform platformWire `json:"platform"`
}

// batchWire is the top-level body of POST /v1/batch, decoded into pooled
// scratch like solveWire. The reader reuses both the instance slice and
// every nested number slice when capacity allows, so a warm decode of a
// batch allocates for none of the instance payloads — on the primed hot
// path the handler goes body → key → cached bytes without materialising
// a single pipeline or platform object. reset clears every instance up
// to the slice's capacity, so neither a field absent from this request
// nor a null element can leak a previous request's numbers into the key.
type batchWire struct {
	Instances     []instanceWire `json:"instances"`
	Objective     string         `json:"objective"`
	Bound         float64        `json:"bound"`
	RelativeBound bool           `json:"relative_bound"`
	Exact         bool           `json:"exact"`
	Workers       int            `json:"workers"`
	TimeoutMS     int            `json:"timeout_ms"`
}

func (bw *batchWire) reset() {
	insts := bw.Instances[:cap(bw.Instances)]
	for i := range insts {
		insts[i].Pipeline.reset()
		insts[i].Platform.reset()
	}
	bw.Instances = insts[:0]
	bw.Objective = ""
	bw.Bound = 0
	bw.RelativeBound, bw.Exact = false, false
	bw.Workers, bw.TimeoutMS = 0, 0
}

// sweepWire is the top-level body of POST /v1/sweep.
type sweepWire struct {
	Pipeline  pipelineWire `json:"pipeline"`
	Platform  platformWire `json:"platform"`
	Points    int          `json:"points"`
	TimeoutMS int          `json:"timeout_ms"`
}

func (sw *sweepWire) reset() {
	sw.Pipeline.reset()
	sw.Platform.reset()
	sw.Points = 0
	sw.TimeoutMS = 0
}

// missing reports whether a decoded sub-object was absent, null or
// empty — the cases the nil-pointer check used to catch. (An explicitly
// empty works/speeds list is invalid anyway, so folding it into
// "missing" only changes the message, not the status.)
func (pw *pipelineWire) missing() bool { return len(pw.Works) == 0 }
func (pw *platformWire) missing() bool { return len(pw.Speeds) == 0 }

// scratch is one request's reusable state: the response-status recorder
// and the top-level wire bodies.
type scratch struct {
	rec   statusRecorder
	solve solveWire
	sweep sweepWire
	batch batchWire
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// bufPool holds render buffers for response bodies. Buffers are leased
// for one encode and released immediately, so the pool's steady-state
// footprint is one buffer per concurrent renderer.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// renderJSON encodes v through a pooled buffer into an exact-size body,
// trailing newline included — the bytes stored in the cache and written
// verbatim on every hit.
func renderJSON(v any) ([]byte, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	bufPool.Put(buf)
	return body, nil
}

// X-Cache tier indices. The first three coincide with cache.Source
// (miss, hit, collapsed); the rest are the peer tiers of clustered
// serving: remote-hit/remote-miss report a response proxied from a
// key replica (split by whether the replica itself had it cached),
// hedged-hit reports a proxied response won by a hedge attempt rather
// than the first replica, and fallback reports a local solve taken
// because every replica was unreachable.
const (
	tierMiss = iota
	tierHit
	tierCollapsed
	tierRemoteHit
	tierRemoteMiss
	tierFallback
	tierHedgedHit
)

// Static header values: assigning a shared slice into the header map
// avoids the per-request []string allocation of Header.Set. The slices
// are never mutated (net/http only reads them), and the keys are already
// in canonical MIME case.
var (
	hdrJSON      = []string{"application/json"}
	hdrXCacheVal = [...][]string{
		tierMiss:       {"miss"},
		tierHit:        {"hit"},
		tierCollapsed:  {"collapsed"},
		tierRemoteHit:  {"remote-hit"},
		tierRemoteMiss: {"remote-miss"},
		tierFallback:   {"fallback"},
		tierHedgedHit:  {"hedged-hit"},
	}
)

// appendJSONString appends the JSON string literal for s to buf with
// exactly encoding/json's escaping rules — short escapes for the common
// controls, \u00xx for the rest, HTML-unsafe characters and the JS line
// separators escaped, invalid UTF-8 replaced — so hand-rendered error
// bodies are byte-identical to encoder output. Pinned against
// json.Marshal by TestErrorJSONShape.
func appendJSONString(buf *bytes.Buffer, s string) {
	const hexDigits = "0123456789abcdef"
	buf.WriteByte('"')
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			switch {
			case b == '"':
				buf.WriteString(`\"`)
			case b == '\\':
				buf.WriteString(`\\`)
			case b == '\n':
				buf.WriteString(`\n`)
			case b == '\r':
				buf.WriteString(`\r`)
			case b == '\t':
				buf.WriteString(`\t`)
			case b < 0x20, b == '<', b == '>', b == '&':
				buf.WriteString(`\u00`)
				buf.WriteByte(hexDigits[b>>4])
				buf.WriteByte(hexDigits[b&0xf])
			default:
				buf.WriteByte(b)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf.WriteString(`\ufffd`)
			i++
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf.WriteString(`\u202`)
			buf.WriteByte(hexDigits[r&0xf])
			i += size
			continue
		}
		buf.WriteString(s[i : i+size])
		i += size
	}
	buf.WriteByte('"')
}

// writeErrorBody renders {"error": msg} through a pooled buffer and
// writes it with the given status: the non-2xx path allocates one
// Content-Length string beyond the message itself.
func writeErrorBody(w http.ResponseWriter, code int, msg string) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.WriteString(`{"error":`)
	appendJSONString(buf, msg)
	buf.WriteString("}\n")
	h := w.Header()
	h["Content-Type"] = hdrJSON
	setContentLength(h, buf.Len())
	w.WriteHeader(code)
	w.Write(buf.Bytes())
	bufPool.Put(buf)
}

// setContentLength sets Content-Length without the Header.Set slice
// allocation for the digits themselves.
func setContentLength(h http.Header, n int) {
	var digits [20]byte
	i := len(digits)
	for {
		i--
		digits[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	h["Content-Length"] = []string{string(digits[i:])}
}
