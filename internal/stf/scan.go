package stf

// The reader of the JSON wire format: one left-to-right pass over a
// document held in memory that appends straight into []Task and one
// []Access slab — no intermediate structs, no reflection, nothing
// allocated per key or per task, no call-back per member. It is the only
// read path: ReadJSON walks a graph object with it and
// internal/server/ingest drives the same Scanner over the submission
// envelope.
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
//
// Reading a flow is what a cold submission mostly costs, so the spellings
// WriteJSON emits have fast paths: a key is compared in place with the
// names of its object (member), a short plain integer is accumulated
// where it stands (integer), indentation is skipped eight bytes at a time
// (skipSpace). None of them decides anything: each sits in front of the
// general reader — key, number + ParseInt, the byte loop — takes only the
// input on which that reader's answer is known, and leaves the scanner
// untouched on anything else, which then falls through to it. So the fast
// paths cannot change the language, an error message or an offset; the
// fuzz against the encoding/json reference (internal/server/ingest) holds
// them to that.
//
// The largest of them reads a whole task by speculation (layout, at the
// end of this file). What is learned: the separators between the values
// of the tasks the general reader read — the white space, punctuation and
// key from one value to the next — as offsets into the document, by the
// pair of places they lead between, accumulating over the tasks read. A
// later task is read by comparing each expected separator as one literal
// and parsing only the values. When it falls back: at the first byte that
// differs from every learned separator, or a value that is not a short
// integer or a mode's name, the task is reset and read again from its
// first byte by the general reader, which learns from it. Why that cannot
// change the language, an error or an offset: speculation reports nothing
// and takes only bytes the general reader would read the same way without
// an error — a separator is learned only if it is exactly the tokens of
// its pair, naming one key, and keys are taken in ascending order, so no
// skipped member, null or repeated key can pass — and everything else is
// the general reader's to read and to report.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// maxDepth is how deep objects and arrays may nest, as in encoding/json.
const maxDepth = 10000

// Scanner reads one JSON document. Its readers expect the next unread
// byte to start a value, which is where NewScanner, member and next
// leave it, and take null for an absent value, as encoding/json did.
type Scanner struct {
	b     []byte
	i     int // next unread byte
	depth int // objects and arrays open around it
	// task and access say where in a flow the scanner stands, for error
	// messages; -1 outside.
	task, access int
	speculated   int // tasks read by speculation
}

// NewScanner returns a scanner at the first value of doc.
func NewScanner(doc []byte) *Scanner {
	s := new(Scanner)
	s.Reset(doc)
	return s
}

// Reset sets s at the first value of doc: what NewScanner returns, in a
// Scanner the caller holds (a local one stays off the heap).
func (s *Scanner) Reset(doc []byte) {
	*s = Scanner{b: doc, task: -1, access: -1}
	s.space()
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

// space skips white space. It is small enough to be inlined: where none
// stands, as everywhere in the compact spelling, it costs one compare.
func (s *Scanner) space() {
	if s.i < len(s.b) && s.b[s.i] <= ' ' {
		s.skipSpace()
	}
}

// skipSpace is space's loop, kept out of line so that space stays small.
// An indented document is half white space, nearly all of it a newline and
// the run of spaces after it: after any white space byte, spaces go eight
// at a time.
//
//go:noinline
func (s *Scanner) skipSpace() {
	const spaces = 0x2020202020202020
	b, i := s.b, s.i
	for i < len(b) && b[i] <= ' ' && isSpace[b[i]] {
		for i++; i+8 <= len(b); i += 8 {
			if x := binary.LittleEndian.Uint64(b[i:]) ^ spaces; x != 0 {
				i += bits.TrailingZeros64(x) / 8 // the first byte that is not a space
				break
			}
		}
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
		var k int
		if k, err = s.member(keys, &seen); err == nil && k >= 0 {
			err = field(k)
		}
		if err == nil {
			more, err = s.next('}')
		}
	}
	return err
}

// member reads one member of an object up to its value: the key, the
// colon and the white space around it. If the key matches keys[k] — a
// second match of the same k is an error; seen has a bit per key matched —
// it returns k with the scanner at the value, which the caller must
// consume. The value of any other key is validated and skipped here, and
// k is -1.
func (s *Scanner) member(keys []string, seen *uint) (k int, err error) {
	b, off := s.b, s.i
	k = -1
	if off < len(b) && b[off] == '"' {
		// The spelling WriteJSON uses, compared where it stands: a name of
		// keys and the closing quote. What key would answer is known.
		name := b[off+1:]
		for j, key := range keys {
			if len(name) > len(key) && name[len(key)] == '"' && name[0] == key[0] && string(name[:len(key)]) == key {
				k, s.i = j, off+len(key)+2
				break
			}
		}
	}
	if k < 0 {
		if k, err = s.key(keys); err != nil {
			return -1, err
		}
	}
	if s.space(); s.peek() != ':' {
		return -1, s.unexpected("':'")
	}
	if s.i++; s.peek() == ' ' { // the one space WriteJSON puts here: no call
		s.i++
	}
	s.space()
	if k < 0 {
		return -1, s.skip()
	}
	if *seen&(1<<k) != 0 {
		return -1, s.errorf(off, "repeated key %q", keys[k])
	}
	*seen |= 1 << k
	return k, nil
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

// integer reads an integer value of the given bit size (32 or more): a
// number with no fraction and no exponent, in range.
func (s *Scanner) integer(size int) (int, error) {
	if n, end, ok := shortInt(s.b, s.i); ok {
		s.i = end
		return n, nil
	}
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
	n64, err := strconv.ParseInt(string(s.b[off:s.i]), 10, size)
	if err != nil {
		return 0, s.errorf(off, "%s is not a %d-bit integer", s.b[off:s.i], size)
	}
	return int(n64), nil
}

// shortInt reads the integer at b[i:] if it is spelled the one way whose
// value is known where it stands: at most nine digits, no leading zero,
// nothing after them that a number goes on with. The value is the digits,
// and it fits 32 bits.
func shortInt(b []byte, i int) (n, end int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	from := i
	for i < len(b) && i-from < 9 && b[i]-'0' <= 9 {
		n = n*10 + int(b[i]-'0')
		i++
	}
	if i > from && (b[from] != '0' || i-from == 1) && (i == len(b) || !numberGoesOn[b[i]]) {
		if neg {
			n = -n
		}
		return n, i, true
	}
	return 0, 0, false
}

// numberGoesOn marks the bytes that continue a number literal after its
// integer digits: a digit, a fraction, an exponent.
var numberGoesOn = [256]bool{'0': true, '1': true, '2': true, '3': true, '4': true, '5': true,
	'6': true, '7': true, '8': true, '9': true, '.': true, 'e': true, 'E': true}

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
		more, err := s.open('[', ']', "an array")
		for more && err == nil {
			if err = s.skip(); err == nil {
				more, err = s.next(']')
			}
		}
		return err
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

// scratch is where a task array is collected before its length is known,
// with the layout its tasks are read by. Pooled ones hold no pointers: the
// tasks are cleared on the way in.
type scratch struct {
	tasks []Task
	slab  []Access // every task's accesses, back to back
	lay   layout
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release returns sc, with the buffers it ended up with, to the pool.
func (sc *scratch) release(tasks []Task, slab []Access) {
	if cap(tasks)*int(unsafe.Sizeof(Task{})) > MaxPooledBytes || cap(slab)*int(unsafe.Sizeof(Access{})) > MaxPooledBytes {
		return
	}
	clear(tasks)
	sc.tasks, sc.slab = tasks[:0], slab[:0]
	scratchPool.Put(sc)
}

// tasks reads the task array. Tasks and accesses are appended to two
// growing slices, pooled scratch, and then copied to exact size: what
// Graph returns is retained for as long as the flow is (by rio-serve's
// flow table), so it must not carry append's slack.
func (r *GraphReader) tasks(s *Scanner) error {
	sc := scratchPool.Get().(*scratch)
	tasks, slab, l := sc.tasks, sc.slab, &sc.lay
	*l = layout{} // its offsets are into another document
	more, err := s.open('[', ']', "an array")
	for more && err == nil {
		s.task = len(tasks)
		tasks = append(tasks, Task{ID: TaskID(len(tasks))})
		t, from := &tasks[len(tasks)-1], len(slab)
		end, ok := 0, false
		if s.depth+3 <= maxDepth { // a task, its accesses and one of them
			end, slab, ok = l.speculate(s.b, s.i, t, slab)
		}
		if ok {
			s.i = end
			s.speculated++
		} else {
			*t, slab = Task{ID: t.ID}, slab[:from]
			slab, err = r.task(s, l, t, slab)
		}
		t.Accesses = slab[from:] // only its length survives the copy below
		if err == nil {
			more, err = s.next(']')
		}
	}
	s.task = -1
	if err == nil && len(tasks) > 0 { // an empty flow keeps nil Tasks, like one built in process
		r.g.Tasks = exactCopy(tasks, slab)
	}
	sc.release(tasks, slab)
	return err
}

// exactCopy returns tasks and their accesses, which lie back to back in
// slab, in two allocations of exactly their size.
func exactCopy(tasks []Task, slab []Access) []Task {
	tasks = append(make([]Task, 0, len(tasks)), tasks...)
	slab = append(make([]Access, 0, len(slab)), slab...)
	for i := range tasks {
		// A task without accesses gets nil, with or without an empty list
		// on the wire: WriteJSON omits empty lists, and parse→serialize→
		// parse must be a fixed point (the round-trip fuzz pins it down).
		t := &tasks[i]
		n := len(t.Accesses)
		t.Accesses = nil
		if n > 0 {
			t.Accesses, slab = slab[:n:n], slab[n:]
		}
	}
	return tasks
}

// task reads one task object into t, appending its accesses to slab, and
// teaches l the separators between its values.
func (r *GraphReader) task(s *Scanner, l *layout, t *Task, slab []Access) ([]Access, error) {
	if s.Null() {
		return slab, nil
	}
	l.from, l.end = fromOpen, s.i
	ints := [...]*int{&t.Kernel, &t.I, &t.J, &t.K} // as taskKeys numbers them
	more, err := s.open('{', '}', "an object")
	for seen := uint(0); more && err == nil; {
		var k int
		switch k, err = s.member(taskKeys, &seen); {
		case err != nil || k < 0: // reported below, or skipped by member
		case k < len(ints):
			at := s.i
			if *ints[k], err = s.integer(strconv.IntSize); err == nil {
				l.saw(s.b, k, at, s.i)
			}
		case !s.Null():
			slab, err = r.accesses(s, l, slab)
		}
		if err == nil {
			more, err = s.next('}')
		}
	}
	if err == nil {
		l.saw(s.b, toClose, s.i, s.i)
	}
	return slab, err
}

// accesses reads one task's access array onto the end of slab.
func (r *GraphReader) accesses(s *Scanner, l *layout, slab []Access) ([]Access, error) {
	from := len(slab)
	more, err := s.open('[', ']', "an array")
	for more && err == nil {
		s.access = len(slab) - from
		var a Access
		a, err = r.access(s, l)
		if slab = append(slab, a); err == nil {
			more, err = s.next(']')
		}
	}
	s.access = -1
	return slab, err
}

// access reads one access object. A missing or unknown mode stays None
// and is remembered in r.badMode.
func (r *GraphReader) access(s *Scanner, l *layout) (a Access, err error) {
	var (
		mode []byte
		off  = s.i // of the mode, once there is one
		more bool
	)
	if !s.Null() {
		more, err = s.open('{', '}', "an object")
	}
	for seen := uint(0); more && err == nil; {
		var k int
		switch k, err = s.member(accessKeys, &seen); {
		case err != nil || k < 0: // reported below, or skipped by member
		case k == 0:
			var d int
			at := s.i
			if d, err = s.integer(32); err == nil {
				l.saw(s.b, toData, at, s.i)
			}
			a.Data = DataID(d)
		case k == 1:
			if off = s.i; !s.Null() {
				if mode, err = s.text(); err == nil { // between the quotes
					l.saw(s.b, toMode, off+1, s.i-1)
				}
			}
			switch string(mode) { // the names WriteJSON writes, AccessMode.String's
			case "R":
				a.Mode = ReadOnly
			case "W":
				a.Mode = WriteOnly
			case "RW":
				a.Mode = ReadWrite
			case "Red":
				a.Mode = Reduction
			}
		default:
			a.Idempotent, err = s.boolean()
		}
		if err == nil {
			more, err = s.next('}')
		}
	}
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

// The speculative reader. The tasks of a document repeat one layout: the
// bytes between their values — white space, punctuation, keys — are the
// same from task to task, and only the values differ. A layout remembers
// the separators the general reader met in the tasks it read, as offsets
// into the document, and reads a later task by comparing each expected
// separator as one literal and parsing only the values.

// The places in a task a separator leads from: its opening brace, the
// value of a task key (kernel, i, j, k), an access's data, and an
// access's mode, whose separators hold its quotes.
const (
	fromOpen = iota
	fromMember
	fromData
	fromMode
	classes
)

// The values a separator leads to: toKernel…toK as taskKeys numbers them,
// an access's data, its mode (after the opening quote), and the end of the
// task (after its closing brace).
const (
	toK     = 3
	toData  = 4
	toMode  = 5
	toClose = 6
	targets = 7
)

// separators are the tokens a separator must consist of, by where it
// leads from and to, "" where none leads. A space stands for any white
// space, none for none: there is none between a quote or a brace and the
// separator it starts, nor between a mode's opening quote and its name.
// Each separator names one key, the key of the value it leads to (and
// "accesses" before the first data), so a layout cannot carry a second
// member into a task, or a skipped one.
var separators = func() (f [classes][targets]string) {
	for k, key := range taskKeys[:toK+1] {
		f[fromOpen][k] = `{ "` + key + `" : `
		f[fromMember][k] = ` , "` + key + `" : `
	}
	f[fromOpen][toData] = `{ "accesses" : [ { "data" : `
	f[fromMember][toData] = ` , "accesses" : [ { "data" : `
	f[fromOpen][toClose] = `{ }`
	f[fromMember][toClose] = ` }`
	f[fromData][toMode] = ` , "mode" : "`
	f[fromMode][toData] = `" } , { "data" : `
	f[fromMode][toClose] = `" } ] }`
	return f
}()

// The places the speculative reader stands between two separators: the
// task's opening brace, and after a value of each target but the end —
// spot to+1 after a value of target to — which for a task key means that
// only a later task key may follow.
const (
	atOpen = 0
	spots  = toMode + 2
)

// class is the class of the separators that lead from each spot, and
// follows the values they may lead to there, in the order they are tried:
// the task keys after the spot's, the first access, the end of the task;
// from an access's data its mode; from its mode the next access or the
// end.
var (
	class   = [spots]int{fromOpen, fromMember, fromMember, fromMember, fromMember, fromData, fromMode}
	follows = [spots][]int{
		{0, 1, 2, toK, toData, toClose},
		{1, 2, toK, toData, toClose},
		{2, toK, toData, toClose},
		{toK, toData, toClose},
		{toData, toClose},
		{toMode},
		{toData, toClose},
	}
)

// span is a separator: where in the document it stands, how long it is,
// and the value it leads to.
type span struct{ off, n, to int }

// stands reports whether the separator w stands at b[i:].
func (w span) stands(b []byte, i int) bool {
	return w.n <= len(b)-i && string(b[i:i+w.n]) == string(b[w.off:w.off+w.n])
}

// A layout holds, for each separator, the last two spellings the general
// reader met — two, so that a document alternating two spellings is read
// by speculation too — and where the general reader stands in its task.
// For the speculative reader it lists them again by spot, in the order
// they are tried.
type layout struct {
	sep  [classes][targets][2]span // n == 0: none met
	from int                       // where the last value read leaves the general reader
	end  int                       // the offset after that value

	next  [spots][2 * (targets - 1)]span
	nexts [spots]int
}

// saw records that the general reader found a value of the given target
// at b[start:end]: the bytes since the last value are a separator, learned
// if they consist of the tokens it must.
func (l *layout) saw(b []byte, to, start, end int) {
	sep, ways := b[l.end:start], &l.sep[l.from][to]
	if form := separators[l.from][to]; form != "" && !ways[0].is(b, sep) && !ways[1].is(b, sep) && shaped(sep, form) {
		ways[0], ways[1] = span{l.end, len(sep), to}, ways[0]
		l.list()
	}
	if to != toClose {
		l.from, l.end = class[to+1], end
	}
}

// is reports whether w is the separator sep.
func (w span) is(b, sep []byte) bool {
	return w.n == len(sep) && string(b[w.off:w.off+w.n]) == string(sep)
}

// list lists the separators again by the spot they lead from.
func (l *layout) list() {
	for at, tos := range follows {
		n := 0
		for _, to := range tos {
			for _, w := range l.sep[class[at]][to] {
				if w.n > 0 {
					l.next[at][n] = w
					n++
				}
			}
		}
		l.nexts[at] = n
	}
}

// shaped reports whether sep consists of the tokens of form.
func shaped(sep []byte, form string) bool {
	i := 0
	for rest, more := form, true; more; {
		var tok string
		tok, rest, more = strings.Cut(rest, " ")
		if len(sep)-i < len(tok) || string(sep[i:i+len(tok)]) != tok {
			return false
		}
		for i += len(tok); more && i < len(sep) && isSpace[sep[i]]; i++ {
		}
	}
	return i == len(sep)
}

// speculate reads the task whose opening brace is at b[i] into t,
// appending its accesses to slab, and returns the offset after its closing
// brace. It accepts a task only if every separator is one the layout
// holds, in the order the general reader allows — task keys ascending, the
// access array last, each access data then mode — and every value a short
// integer (shortInt) or a mode's name: bytes on which the general reader
// reads the same task and finds no error. Anything else is not ok, and the
// caller hands the task to the general reader: speculation never decides
// what a task means or reports an error.
func (l *layout) speculate(b []byte, i int, t *Task, slab []Access) (int, []Access, bool) {
	ints := [...]*int{&t.Kernel, &t.I, &t.J, &t.K}
	for at := atOpen; ; {
		next, to := l.next[at][:l.nexts[at]], -1
		for _, w := range next {
			if w.stands(b, i) {
				i, to = i+w.n, w.to
				break
			}
		}
		var n int
		ok := to >= 0
		switch {
		case !ok:
		case to == toClose:
			return i, slab, true
		case to == toMode:
			m := &slab[len(slab)-1].Mode
			*m, i = shortMode(b, i)
			ok = *m != None
		case i+2 < len(b) && b[i]-'0' <= 9 && !numberGoesOn[b[i+1]]:
			// One or two digits, as most values are, in line; longer ones
			// by shortInt.
			n, i = int(b[i]-'0'), i+1
		case i+2 < len(b) && b[i]-'1' <= 8 && b[i+1]-'0' <= 9 && !numberGoesOn[b[i+2]]:
			n, i = int(b[i]-'0')*10+int(b[i+1]-'0'), i+2
		default:
			n, i, ok = shortInt(b, i)
		}
		if !ok {
			return 0, slab, false
		}
		switch {
		case to <= toK:
			*ints[to] = n
		case to == toData:
			slab = append(slab, Access{Data: DataID(n)})
		}
		at = to + 1
	}
}

// shortMode reads the name of a mode as AccessMode.String writes it at
// b[i:]; the separator that must follow starts with the closing quote.
func shortMode(b []byte, i int) (AccessMode, int) {
	switch {
	case i >= len(b):
	case b[i] == 'W':
		return WriteOnly, i + 1
	case b[i] != 'R':
	case i+1 < len(b) && b[i+1] == 'W':
		return ReadWrite, i + 2
	case i+2 < len(b) && b[i+1] == 'e' && b[i+2] == 'd':
		return Reduction, i + 3
	default:
		return ReadOnly, i + 1
	}
	return None, i
}
