package service

// The request-body reader: one scan of the body bytes, straight into the
// pooled wire structs, with strconv called once per number token.
//
// It accepts and rejects exactly the bodies a strict json.Decoder with a
// More check did (the oracle of decode_test.go), and leaves the wire
// structs exactly as encoding/json leaves them:
//
//   - Keys match a field exactly or under bytes.EqualFold. A repeated key
//     decodes again into the same field, so the last one wins. An
//     unknown key is an error at any depth.
//   - null sets a slice to nil and leaves a number, string, bool or
//     struct as it is, an array element included.
//   - An array decodes in place over the slice's backing array, growing
//     it like append, and truncates it to its own length; [] leaves an
//     empty slice of zero capacity, so a later array starts on zeroed
//     memory.
//   - Numbers follow the JSON grammar and then strconv: a float out of
//     range, or a fraction, exponent or overflow into an int, is an
//     error, and -0 keeps its sign.
//   - A key or string holding a backslash, a control byte or a non-ASCII
//     byte goes to json.Unmarshal, so escapes and invalid UTF-8 read as
//     encoding/json reads them.
//
// A value of the wrong type is an error, as is an unknown key, so the
// reader never skips a value it does not decode.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"pipesched/internal/platform"
)

// wireObject is a wire struct the reader fills: field decodes the value
// that follows key, or rejects an unknown key.
type wireObject interface {
	field(r *reader, key []byte) error
}

// reader walks one request body.
type reader struct {
	data []byte
	pos  int
}

var errEOF = errors.New("unexpected end of JSON input")

// decodeWire decodes one request body into v: a JSON object, or null,
// which leaves v as it is (validation then rejects the empty request).
func decodeWire(data []byte, v wireObject) error {
	r := reader{data: data}
	if err := r.object(v); err != nil {
		return err
	}
	// json.Decoder.More reports no further value when the next byte is
	// ']' or '}', so the strict decoder accepted a body whose object is
	// followed by one of them, and by anything after it. Kept, so the
	// accept set does not change.
	if c := r.skip(); r.pos < len(data) && c != ']' && c != '}' {
		return errors.New("trailing data after the JSON object")
	}
	return nil
}

// skip moves past whitespace and returns the next byte, 0 at the end.
func (r *reader) skip() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// syntax is the error for the byte at r.pos.
func (r *reader) syntax() error {
	if r.pos >= len(r.data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", r.data[r.pos], r.pos)
}

// mismatch is the error for a value at r.pos that is not of type want.
func (r *reader) mismatch(want string) error {
	if r.pos >= len(r.data) {
		return errEOF
	}
	return fmt.Errorf("json: want %s at offset %d, found %q", want, r.pos, r.data[r.pos])
}

// literal consumes lit (true, false or null) at r.pos.
func (r *reader) literal(lit string) error {
	if end := r.pos + len(lit); end > len(r.data) || string(r.data[r.pos:end]) != lit {
		return r.syntax()
	}
	r.pos += len(lit)
	return nil
}

// object decodes a JSON object into v, or null, which leaves v as it is.
func (r *reader) object(v wireObject) error {
	switch r.skip() {
	case 'n':
		return r.literal("null")
	case '{':
		r.pos++
	default:
		return r.mismatch("an object")
	}
	if r.skip() == '}' {
		r.pos++
		return nil
	}
	for {
		if r.skip() != '"' {
			return r.syntax()
		}
		key, err := r.key()
		if err != nil {
			return err
		}
		if r.skip() != ':' {
			return r.syntax()
		}
		r.pos++
		if err := v.field(r, key); err != nil {
			return err
		}
		switch r.skip() {
		case ',':
			r.pos++
		case '}':
			r.pos++
			return nil
		default:
			return r.syntax()
		}
	}
}

// readArray decodes a JSON array into *s, or null into nil. elem decodes
// element i in place into (*s)[i]; the slice grows like append once the
// array outruns its capacity and ends truncated to the array's length,
// and [] leaves it empty with zero capacity.
func readArray[E any](r *reader, s *[]E, elem func(*reader, *E) error) error {
	switch r.skip() {
	case 'n':
		if err := r.literal("null"); err != nil {
			return err
		}
		*s = nil
		return nil
	case '[':
		r.pos++
	default:
		return r.mismatch("an array")
	}
	if r.skip() == ']' {
		r.pos++
		*s = []E{}
		return nil
	}
	a := *s
	for i := 0; ; i++ {
		if i == len(a) {
			if i < cap(a) {
				a = a[:i+1]
			} else {
				var zero E
				a = append(a, zero)
			}
		}
		if err := elem(r, &a[i]); err != nil {
			return err
		}
		switch r.skip() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			*s = a[:i+1]
			return nil
		default:
			return r.syntax()
		}
	}
}

// floatRow is the element function of a [][]float64 array.
func floatRow(r *reader, row *[]float64) error { return readArray(r, row, (*reader).float) }

// instance is the element function of a batch's instance array.
func instance(r *reader, in *instanceWire) error { return r.object(in) }

// number scans the JSON number token at r.pos. ok is false on null,
// which it consumes; any other value is an error.
func (r *reader) number(want string) (tok []byte, ok bool, err error) {
	switch c := r.skip(); {
	case c == 'n':
		return nil, false, r.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return nil, false, r.mismatch(want)
	}
	d, start := r.data, r.pos
	i := start
	if d[i] == '-' {
		i++
	}
	// An integer part without a leading zero, then an optional fraction
	// and exponent, each with at least one digit.
	j := digits(d, i)
	if j == i || d[i] == '0' && j > i+1 {
		r.pos = min(i+1, j)
		return nil, false, r.syntax()
	}
	if j < len(d) && d[j] == '.' {
		if i, j = j+1, digits(d, j+1); j == i {
			r.pos = j
			return nil, false, r.syntax()
		}
	}
	if j < len(d) && (d[j] == 'e' || d[j] == 'E') {
		if j++; j < len(d) && (d[j] == '+' || d[j] == '-') {
			j++
		}
		if i, j = j, digits(d, j); j == i {
			r.pos = j
			return nil, false, r.syntax()
		}
	}
	r.pos = j
	return d[start:j], true, nil
}

// digits returns the index past the run of digits at d[i:].
func digits(d []byte, i int) int {
	for i < len(d) && d[i]-'0' < 10 {
		i++
	}
	return i
}

// float decodes a number into *f; null leaves it as it is.
func (r *reader) float(f *float64) error {
	tok, ok, err := r.number("a number")
	if !ok {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return fmt.Errorf("json: number %s is out of range", tok)
	}
	*f = v
	return nil
}

// integer decodes an integral number into *n; null leaves it as it is.
func (r *reader) integer(n *int) error {
	tok, ok, err := r.number("an integer")
	if !ok {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return fmt.Errorf("json: number %s is not an int", tok)
	}
	*n = int(v)
	return nil
}

// boolean decodes true or false into *b; null leaves it as it is. (A bad
// literal rejects the request, so *b may be set before the check.)
func (r *reader) boolean(b *bool) error {
	switch r.skip() {
	case 't':
		*b = true
		return r.literal("true")
	case 'f':
		*b = false
		return r.literal("false")
	case 'n':
		return r.literal("null")
	}
	return r.mismatch("a bool")
}

// str decodes a string into *s; null leaves it as it is.
func (r *reader) str(s *string) error {
	switch r.skip() {
	case 'n':
		return r.literal("null")
	case '"':
	default:
		return r.mismatch("a string")
	}
	tok, plain, err := r.stringToken()
	switch {
	case err != nil:
		return err
	case !plain:
		return json.Unmarshal(tok, s)
	}
	*s = enumValue(tok[1 : len(tok)-1])
	return nil
}

// key reads an object key: the bytes between the quotes when they need
// no decoding, else the key as json.Unmarshal decodes it.
func (r *reader) key() ([]byte, error) {
	tok, plain, err := r.stringToken()
	switch {
	case err != nil:
		return nil, err
	case plain:
		return tok[1 : len(tok)-1], nil
	}
	var k string
	err = json.Unmarshal(tok, &k)
	return []byte(k), err
}

// stringToken scans the string token at r.pos, quotes included. plain
// reports that its bytes are its value: printable ASCII, no backslash.
func (r *reader) stringToken() (tok []byte, plain bool, err error) {
	d := r.data
	plain = true
	for i := r.pos + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			tok, r.pos = d[r.pos:i+1], i+1
			return tok, plain, nil
		case c == '\\':
			plain = false
			i++
		case c < 0x20 || c >= 0x80:
			plain = false
		}
	}
	r.pos = len(d)
	return nil, false, errEOF
}

// enumValues are the string values a request names without a new string.
var enumValues = [...]string{
	platform.CommHomogeneous.String(), platform.FullyHeterogeneous.String(),
	"min-latency", "min-period", "portfolio", "best", "exact",
}

// enumValue returns b as a string: the constant for a known value, a
// copy for any other.
func enumValue(b []byte) string {
	for _, v := range enumValues {
		if string(b) == v {
			return v
		}
	}
	return string(b)
}

// fieldIndex returns the index of the name key matches, exactly or else
// under bytes.EqualFold as encoding/json matches keys, or -1.
func fieldIndex(key []byte, names ...string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

func unknownField(key []byte) error { return fmt.Errorf("json: unknown field %q", key) }

func (pw *pipelineWire) field(r *reader, key []byte) error {
	switch fieldIndex(key, "works", "deltas") {
	case 0:
		return readArray(r, &pw.Works, (*reader).float)
	case 1:
		return readArray(r, &pw.Deltas, (*reader).float)
	}
	return unknownField(key)
}

func (pw *platformWire) field(r *reader, key []byte) error {
	switch fieldIndex(key, "kind", "speeds", "bandwidth", "links") {
	case 0:
		return r.str(&pw.Kind)
	case 1:
		return readArray(r, &pw.Speeds, (*reader).float)
	case 2:
		return r.float(&pw.Bandwidth)
	case 3:
		return readArray(r, &pw.Links, floatRow)
	}
	return unknownField(key)
}

func (in *instanceWire) field(r *reader, key []byte) error {
	switch fieldIndex(key, "pipeline", "platform") {
	case 0:
		return r.object(&in.Pipeline)
	case 1:
		return r.object(&in.Platform)
	}
	return unknownField(key)
}

func (sw *solveWire) field(r *reader, key []byte) error {
	switch fieldIndex(key, "pipeline", "platform", "objective", "bound", "mode", "timeout_ms") {
	case 0:
		return r.object(&sw.Pipeline)
	case 1:
		return r.object(&sw.Platform)
	case 2:
		return r.str(&sw.Objective)
	case 3:
		return r.float(&sw.Bound)
	case 4:
		return r.str(&sw.Mode)
	case 5:
		return r.integer(&sw.TimeoutMS)
	}
	return unknownField(key)
}

func (sw *sweepWire) field(r *reader, key []byte) error {
	switch fieldIndex(key, "pipeline", "platform", "points", "timeout_ms") {
	case 0:
		return r.object(&sw.Pipeline)
	case 1:
		return r.object(&sw.Platform)
	case 2:
		return r.integer(&sw.Points)
	case 3:
		return r.integer(&sw.TimeoutMS)
	}
	return unknownField(key)
}

func (bw *batchWire) field(r *reader, key []byte) error {
	switch fieldIndex(key, "instances", "objective", "bound", "relative_bound", "exact", "timeout_ms") {
	case 0:
		return readArray(r, &bw.Instances, instance)
	case 1:
		return r.str(&bw.Objective)
	case 2:
		return r.float(&bw.Bound)
	case 3:
		return r.boolean(&bw.RelativeBound)
	case 4:
		return r.boolean(&bw.Exact)
	case 5:
		return r.integer(&bw.TimeoutMS)
	}
	return unknownField(key)
}
