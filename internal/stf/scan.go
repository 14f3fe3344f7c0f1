package stf

// The reader of the JSON wire format: one left-to-right pass over a
// document held in memory that appends straight into []Task and one
// []Access slab — no intermediate structs, no reflection, nothing
// allocated per key or per task. It is the only read path: ReadJSON
// walks a graph object with it and internal/server/ingest drives the
// same Scanner over the submission envelope.
//
// The language accepted is the one encoding/json accepted for this
// schema, with the same meaning: keys match exactly or else case-folded
// (strings.EqualFold), null means absent, unknown members are skipped
// but every byte of them is validated (same 10 000 nesting limit),
// numbers must be integers in range, strings unquote the same way. One
// thing is deliberately tighter: a key the decoder interprets may stand
// once in its object. encoding/json merged a repeated key into the
// previous value, so {"tasks":[{"kernel":0,"i":5}],"tasks":[{"kernel":1}]}
// ran as one task {kernel 1, i 5} — a flow neither list describes.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// maxDepth is how deep objects and arrays may nest, as in encoding/json.
const maxDepth = 10000

// Scanner reads one JSON document. Its readers expect the next unread
// byte to start a value, which is where NewScanner, Object and array
// leave it, and take null for an absent value, as encoding/json did.
type Scanner struct {
	b     []byte
	i     int // next unread byte
	depth int // objects and arrays open around it
	// task and access say where in a flow the scanner stands, for error
	// messages; -1 outside.
	task, access int
}

// NewScanner returns a scanner at the first value of doc.
func NewScanner(doc []byte) *Scanner {
	s := &Scanner{b: doc, task: -1, access: -1}
	s.space()
	return s
}

// errorf is an error about the token at byte offset off, prefixed with
// the task and access being read when there is one.
func (s *Scanner) errorf(off int, format string, args ...any) error {
	where := ""
	if s.task >= 0 {
		where = fmt.Sprintf("task %d: ", s.task)
		if s.access >= 0 {
			where += fmt.Sprintf("access %d: ", s.access)
		}
	}
	return fmt.Errorf("%s%s (offset %d)", where, fmt.Sprintf(format, args...), off)
}

// unexpected reports the next byte as not being want.
func (s *Scanner) unexpected(want string) error {
	if s.i >= len(s.b) {
		return s.errorf(s.i, "unexpected end of document, want %s", want)
	}
	return s.errorf(s.i, "unexpected %q, want %s", s.b[s.i], want)
}

// isSpace marks JSON's white space.
var isSpace = [256]bool{' ': true, '\n': true, '\t': true, '\r': true}

// space skips white space. An indented document is half white space, so
// the loop runs on locals.
func (s *Scanner) space() {
	b, i := s.b, s.i
	for i < len(b) && isSpace[b[i]] {
		i++
	}
	s.i = i
}

// peek returns the next byte, 0 at the end of the document (a byte no
// value, key or separator starts with).
func (s *Scanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// word consumes w if the document continues with it.
func (s *Scanner) word(w string) bool {
	if s.peek() != w[0] || string(s.b[s.i:min(s.i+len(w), len(s.b))]) != w {
		return false
	}
	s.i += len(w)
	return true
}

// Null consumes a null if that is the next value.
func (s *Scanner) Null() bool { return s.word("null") }

// End checks that nothing but white space follows the value just read.
func (s *Scanner) End() error {
	if s.space(); s.i < len(s.b) {
		return s.errorf(s.i, "unexpected %q after the document", s.b[s.i])
	}
	return nil
}

// open consumes the bracket that starts an object or array and reports
// whether it has members; if not, the closing bracket is consumed too.
func (s *Scanner) open(bracket, closing byte, want string) (members bool, err error) {
	if s.peek() != bracket {
		return false, s.unexpected(want)
	}
	if s.depth++; s.depth > maxDepth {
		return false, s.errorf(s.i, "exceeded max depth")
	}
	s.i++
	if s.space(); s.peek() == closing {
		return s.next(closing)
	}
	return true, nil
}

// next consumes what follows a member of an object or array: a comma
// (more is true) or the closing bracket.
func (s *Scanner) next(closing byte) (more bool, err error) {
	s.space()
	switch s.peek() {
	case ',':
		s.i++
		s.space()
		return true, nil
	case closing:
		s.i++
		s.depth--
		return false, nil
	}
	return false, s.unexpected(fmt.Sprintf("',' or %q", closing))
}

// Object walks an object. A key that matches keys[k] has field(k) called
// with the scanner at its value, which field must consume; a second match
// of the same k is an error. Any other member is validated and skipped.
func (s *Scanner) Object(keys []string, field func(k int) error) error {
	if s.Null() {
		return nil
	}
	more, err := s.open('{', '}', "an object")
	for seen := uint(0); more && err == nil; {
		if err = s.member(keys, &seen, field); err == nil {
			more, err = s.next('}')
		}
	}
	return err
}

// member reads one member of an object; seen has a bit per key matched.
func (s *Scanner) member(keys []string, seen *uint, field func(k int) error) error {
	off := s.i
	k, err := s.key(keys)
	if err != nil {
		return err
	}
	if s.space(); !s.word(":") {
		return s.unexpected("':'")
	}
	s.space()
	if k < 0 {
		return s.skip()
	}
	if *seen&(1<<k) != 0 {
		return s.errorf(off, "repeated key %q", keys[k])
	}
	*seen |= 1 << k
	return field(k)
}

// array walks an array, calling elem with the scanner at each element,
// which elem must consume.
func (s *Scanner) array(elem func() error) error {
	if s.Null() {
		return nil
	}
	more, err := s.open('[', ']', "an array")
	for more && err == nil {
		if err = elem(); err == nil {
			more, err = s.next(']')
		}
	}
	return err
}

// maxFold is the longest key worth folding: longer than any spelling of
// any key read here, and what a string conversion keeps off the heap.
const maxFold = 32

// key reads an object key and returns the index of the name in keys it
// matches, exactly or else case-folded, -1 for none.
func (s *Scanner) key(keys []string) (int, error) {
	name, err := s.text()
	if err != nil {
		return -1, err
	}
	for k, key := range keys {
		if string(name) == key { // the spelling WriteJSON uses: nothing copied, nothing folded
			return k, nil
		}
	}
	for k, key := range keys {
		if len(name) > maxFold {
			break
		}
		if strings.EqualFold(string(name), key) {
			return k, nil
		}
	}
	return -1, nil
}

// literal consumes a string literal, validating it, and returns it with
// its quotes. plain reports that it holds neither an escape nor a
// non-ASCII byte, so the bytes between the quotes are the string.
func (s *Scanner) literal() (lit []byte, plain bool, err error) {
	if s.peek() != '"' {
		return nil, false, s.unexpected("a string")
	}
	plain = true
	for i := s.i + 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			lit, s.i = s.b[s.i:i+1], i+1
			return lit, plain, nil
		case c == '\\':
			plain = false
			if i++; i < len(s.b) && s.b[i] == 'u' {
				for n := 0; n < 4; n++ {
					if i++; i >= len(s.b) || strings.IndexByte("0123456789abcdefABCDEF", s.b[i]) < 0 {
						return nil, false, s.errorf(i, "invalid \\u escape in string")
					}
				}
			} else if i >= len(s.b) || strings.IndexByte(`"\/bfnrt`, s.b[i]) < 0 {
				return nil, false, s.errorf(i, "invalid escape in string")
			}
		case c < ' ':
			return nil, false, s.errorf(i, "invalid control character %q in string", c)
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, s.errorf(len(s.b), "unexpected end of document in string")
}

// text consumes a string literal and returns the string it denotes: the
// bytes between the quotes of a plain one, in place; any other unquoted by
// encoding/json, whose business escapes, surrogates and invalid UTF-8 are.
func (s *Scanner) text() ([]byte, error) {
	lit, plain, err := s.literal()
	if err != nil {
		return nil, err
	}
	if plain {
		return lit[1 : len(lit)-1], nil
	}
	var str string
	err = json.Unmarshal(lit, &str)
	return []byte(str), err
}

// String reads a string value.
func (s *Scanner) String() (string, error) {
	if s.Null() {
		return "", nil
	}
	text, err := s.text()
	return string(text), err
}

// digits consumes a run of digits and reports whether there was one.
func (s *Scanner) digits() bool {
	from := s.i
	for c := s.peek(); '0' <= c && c <= '9'; c = s.peek() {
		s.i++
	}
	return s.i > from
}

// number consumes a number literal, validating its syntax:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *Scanner) number() error {
	s.word("-")
	if !s.word("0") && !s.digits() {
		return s.unexpected("a digit")
	}
	if s.word(".") && !s.digits() {
		return s.unexpected("a digit")
	}
	if s.word("e") || s.word("E") {
		if _ = s.word("+") || s.word("-"); !s.digits() {
			return s.unexpected("a digit")
		}
	}
	return nil
}

// integer reads an integer value of the given bit size: a number with no
// fraction and no exponent, in range.
func (s *Scanner) integer(bits int) (int, error) {
	if s.Null() {
		return 0, nil
	}
	off := s.i
	if c := s.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, s.unexpected("an integer")
	}
	if err := s.number(); err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(s.b[off:s.i]), 10, bits)
	if err != nil {
		return 0, s.errorf(off, "%s is not a %d-bit integer", s.b[off:s.i], bits)
	}
	return int(n), nil
}

// boolean reads a true or false value.
func (s *Scanner) boolean() (bool, error) {
	if s.Null() || s.word("false") {
		return false, nil
	}
	if s.word("true") {
		return true, nil
	}
	return false, s.unexpected("true or false")
}

// skip validates and consumes one value of any type.
func (s *Scanner) skip() (err error) {
	switch c := s.peek(); {
	case c == '{':
		return s.Object(nil, nil)
	case c == '[':
		return s.array(s.skip)
	case c == '"':
		_, _, err = s.literal()
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	default:
		if _, err = s.boolean(); err != nil {
			err = s.unexpected("a value")
		}
	}
	return err
}

// Unmarshal validates and consumes one value of any type and hands its
// bytes to v.
func (s *Scanner) Unmarshal(v json.Unmarshaler) error {
	off := s.i
	if err := s.skip(); err != nil {
		return err
	}
	if err := v.UnmarshalJSON(s.b[off:s.i]); err != nil {
		return s.errorf(off, "%v", err)
	}
	return nil
}

// GraphKeys are the keys of a graph object, numbered as
// GraphReader.Field takes them.
var GraphKeys = []string{"name", "num_data", "tasks"}

var (
	taskKeys   = []string{"kernel", "i", "j", "k", "accesses"}
	accessKeys = []string{"data", "mode", "idempotent"}
)

// GraphReader collects one graph object: well-typed JSON that is not yet
// known to be a flow. What makes it not a flow — an access whose mode is
// none of R, W, RW, Red, then whatever Graph.Validate finds — is reported
// by Graph, not while reading: a submission may carry a graph object that
// is never used, which must be well-typed and nothing more.
type GraphReader struct {
	g Graph
	// HasTasks reports that a "tasks" array was read (not absent, not null).
	HasTasks bool
	badMode  error // about the first access without a known mode
}

// Read reads a whole graph object (or null, which is an empty graph).
func (r *GraphReader) Read(s *Scanner) error {
	return s.Object(GraphKeys, func(k int) error { return r.Field(s, k) })
}

// Field reads the value of the graph key GraphKeys[k].
func (r *GraphReader) Field(s *Scanner, k int) (err error) {
	switch k {
	case 0:
		r.g.Name, err = s.String()
	case 1:
		r.g.NumData, err = s.integer(strconv.IntSize)
	case 2:
		if r.HasTasks = !s.Null(); r.HasTasks {
			err = r.tasks(s)
		}
	}
	return err
}

// tasks reads the task array. Tasks and accesses are appended to two
// growing slices and then copied to exact size: what Graph returns is
// retained for as long as the flow is (by rio-serve's flow table), so it
// must not carry append's slack.
func (r *GraphReader) tasks(s *Scanner) error {
	var (
		tasks []Task
		slab  []Access // every task's accesses, back to back
	)
	err := s.array(func() error {
		s.task = len(tasks)
		t := Task{ID: TaskID(len(tasks))}
		ints := [...]*int{&t.Kernel, &t.I, &t.J, &t.K} // as taskKeys numbers them
		from := len(slab)
		err := s.Object(taskKeys, func(k int) (err error) {
			if k < len(ints) {
				*ints[k], err = s.integer(strconv.IntSize)
				return err
			}
			err = s.array(func() error {
				s.access = len(slab) - from
				a, err := r.access(s)
				slab = append(slab, a)
				return err
			})
			s.access = -1
			return err
		})
		t.Accesses = slab[from:] // only its length survives the copy below
		tasks = append(tasks, t)
		return err
	})
	s.task = -1
	if err != nil || len(tasks) == 0 { // an empty flow keeps nil Tasks, like one built in process
		return err
	}
	r.g.Tasks = append(make([]Task, 0, len(tasks)), tasks...)
	slab = append(make([]Access, 0, len(slab)), slab...)
	for i := range r.g.Tasks {
		// A task without accesses gets nil, with or without an empty list
		// on the wire: WriteJSON omits empty lists, and parse→serialize→
		// parse must be a fixed point (the round-trip fuzz pins it down).
		t := &r.g.Tasks[i]
		n := len(t.Accesses)
		t.Accesses = nil
		if n > 0 {
			t.Accesses, slab = slab[:n:n], slab[n:]
		}
	}
	return nil
}

// access reads one access object. A missing or unknown mode stays None
// and is remembered in r.badMode.
func (r *GraphReader) access(s *Scanner) (a Access, err error) {
	var mode []byte
	off := s.i // of the mode, once there is one
	err = s.Object(accessKeys, func(k int) (err error) {
		switch k {
		case 0:
			var d int
			d, err = s.integer(32)
			a.Data = DataID(d)
		case 1:
			if off = s.i; !s.Null() {
				mode, err = s.text()
			}
			for m := ReadOnly; m <= Reduction; m++ {
				if string(mode) == m.String() { // the names WriteJSON writes
					a.Mode = m
				}
			}
		case 2:
			a.Idempotent, err = s.boolean()
		}
		return err
	})
	if err == nil && a.Mode == None && r.badMode == nil {
		r.badMode = s.errorf(off, "unknown access mode %q", mode)
	}
	return a, err
}

// Graph returns the graph read, if it is a valid flow.
func (r *GraphReader) Graph() (*Graph, error) {
	if r.badMode != nil {
		return nil, r.badMode
	}
	if err := r.g.Validate(); err != nil {
		return nil, err
	}
	return &r.g, nil
}
