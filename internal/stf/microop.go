package stf

import (
	"fmt"
	"iter"
	"unsafe"
)

// The stored form of a compiled stream. A worker's stream is a flat array
// of 32-bit words, each an OpCode in the top four bits over a 28-bit
// operand: a data micro-op's operand is its datum, OpExec's is its task.
// Which task a data micro-op acts for is not repeated per word. Compile
// emits a stream task by task, so the micro-ops of one task form a group,
// and a group whose first micro-op is not its OpExec opens with one OpTask
// word naming the task. An interpreter keeps the open group's task in a
// register: OpTask and OpExec set it, every data micro-op reads it.
//
// The declared access mode is not stored either: the opcode carries all
// the protocol needs, and the few diagnostics that name a mode read it
// from the task table.
//
// The appender is the one writer of the format (outside this package:
// Encode) and Decode the one reader; only the engine's execution loop
// reads words directly (Word.Op, Word.Arg).

// OpCode identifies one compiled micro-op. The access mode is folded into
// the opcode so the execution loop dispatches on the opcode alone. Four
// bits are stored: codes above OpTask are unused (free for fused
// operations) and reach an interpreter's corrupt-stream case.
type OpCode uint8

const (
	// OpDeclareRead … OpDeclareRed are the declare_* calls of Algorithm 1:
	// private-memory bookkeeping for a task owned by another worker.
	OpDeclareRead OpCode = iota
	OpDeclareWrite
	OpDeclareRed
	// OpGetRead … OpGetRed are the get_* dependency waits.
	OpGetRead
	OpGetWrite
	OpGetRed
	// OpExec runs the task body (kernel dispatch on Tasks[Instr.Task]).
	OpExec
	// OpTermRead … OpTermRed are the terminate_* completion publications.
	// The groups list their modes in one order: the engine maps a stolen
	// task's terminate to the declare of its mode by subtraction.
	OpTermRead
	OpTermWrite
	OpTermRed
	// OpTask opens a task group: it names the task the data micro-ops
	// after it act for. It is not a micro-op: Decode yields nothing for it
	// and Ops does not count it.
	OpTask
)

// String names the opcode for dumps and tests.
func (op OpCode) String() string {
	switch op {
	case OpDeclareRead:
		return "declare_read"
	case OpDeclareWrite:
		return "declare_write"
	case OpDeclareRed:
		return "declare_red"
	case OpGetRead:
		return "get_read"
	case OpGetWrite:
		return "get_write"
	case OpGetRed:
		return "get_red"
	case OpExec:
		return "exec"
	case OpTermRead:
		return "terminate_read"
	case OpTermWrite:
		return "terminate_write"
	case OpTermRed:
		return "terminate_red"
	case OpTask:
		return "task"
	}
	return fmt.Sprintf("OpCode(%d)", uint8(op))
}

// Instr is the decoded view of one micro-op: which protocol operation to
// perform, on which data object, on behalf of which task. It is what
// Decode yields and Encode takes; streams store Words.
type Instr struct {
	// Op selects the protocol operation (mode pre-dispatched). It is never
	// OpTask.
	Op OpCode
	// Data is the accessed data object (unused by OpExec).
	Data DataID
	// Task is the index into CompiledProgram.Tasks (equal to the TaskID,
	// since recorded graphs have sequential IDs).
	Task int32
}

// Word is one stored word of a compiled stream.
type Word uint32

// operandBits is the width of a word's operand.
const operandBits = 28

// MaxIndex is the largest operand a word carries: Compile rejects flows
// with more than MaxIndex data objects or tasks (2^28 or more).
const MaxIndex = 1<<operandBits - 1

// Op returns the word's opcode.
func (w Word) Op() OpCode { return OpCode(w >> operandBits) }

// Arg returns the word's operand: a datum, or a task for OpExec and OpTask.
func (w Word) Arg() int32 { return int32(w & MaxIndex) }

func word(op OpCode, arg int32) Word {
	return Word(op)<<operandBits | Word(uint32(arg)&MaxIndex)
}

// appender encodes micro-ops onto a stream. The zero value appends to an
// empty stream; an appender must see every micro-op of the stream it
// builds, since it remembers which task's group is open.
type appender struct {
	words []Word // the stream built so far
	task  int32  // task of the open group, when open
	open  bool
}

// append encodes in, opening a group for in.Task first when in is a data
// micro-op (or an unknown opcode) of a task whose group is not open.
func (a *appender) append(in Instr) {
	if in.Op == OpExec {
		a.words = append(a.words, word(OpExec, in.Task))
	} else {
		if !a.open || a.task != in.Task {
			a.words = append(a.words, word(OpTask, in.Task))
		}
		a.words = append(a.words, word(in.Op, int32(in.Data)))
	}
	a.task, a.open = in.Task, true
}

// Encode returns the stream of the micro-ops ins, in order: what Decode
// reads back as ins, bar the datum of an exec, which is not stored.
func Encode(ins []Instr) []Word {
	a := appender{words: make([]Word, 0, len(ins))}
	for _, in := range ins {
		a.append(in)
	}
	return a.words
}

// Decode yields the micro-ops of stream s in order, each with the task of
// its group. A data micro-op ahead of any group has Task -1.
func Decode(s []Word) iter.Seq[Instr] {
	return func(yield func(Instr) bool) {
		task := int32(-1)
		for _, w := range s {
			switch op, arg := w.Op(), w.Arg(); op {
			case OpTask:
				task = arg
			case OpExec:
				task = arg
				if !yield(Instr{Op: op, Task: arg}) {
					return
				}
			default:
				if !yield(Instr{Op: op, Data: DataID(arg), Task: task}) {
					return
				}
			}
		}
	}
}

// StreamOps counts the micro-ops of stream s: its words bar the OpTask
// words.
func StreamOps(s []Word) int {
	n := len(s)
	for _, w := range s {
		if w.Op() == OpTask {
			n--
		}
	}
	return n
}

// StreamBytes is what stream s stores: four bytes a word.
func StreamBytes(s []Word) int { return len(s) * int(unsafe.Sizeof(Word(0))) }

// checkIndexable reports a flow whose data or task indices do not fit a
// word's operand.
func checkIndexable(numData, numTasks int) error {
	switch {
	case numData > MaxIndex:
		return fmt.Errorf("stf: compile: graph has %d data objects, compiled streams hold fewer than 2^28 (%d)", numData, MaxIndex+1)
	case numTasks > MaxIndex:
		return fmt.Errorf("stf: compile: graph has %d tasks, compiled streams hold fewer than 2^28 (%d)", numTasks, MaxIndex+1)
	}
	return nil
}
