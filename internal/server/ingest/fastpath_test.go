package ingest

// The fast paths of internal/stf/scan.go — a key compared in place, a
// short integer accumulated where it stands, indentation skipped eight
// bytes at a time, one space after a colon, modes by switch, and a task
// read by speculation on the layout of the tasks before it — each sit in
// front of the general reader and must hand over to it without a trace.
// These rows stand at the edges of each: the input a fast path takes, the
// nearest input it must leave alone, and what the general reader then
// says. The error texts are those of the scanner before it had fast
// paths, offsets included, and those of the general reader alone for the
// rows of several tasks (departureRows). The bodies are fuzz seeds too
// (wireSeeds).

import (
	"fmt"
	"strings"
	"testing"
)

// task is a one-task flow over three data whose task object has the given
// members; access gives its one task one access object with them.
func task(members string) string {
	return `{"name":"x","num_data":3,"tasks":[{` + members + `}]}`
}

func access(members string) string {
	return task(`"kernel":1,"accesses":[{` + members + `}]`)
}

// fastPathRow is a submission and the error Parse answers it with, empty
// for none.
type fastPathRow struct{ name, body, err string }

func fastPathRows() []fastPathRow {
	rows := []fastPathRow{
		{"int zero", task(`"kernel":0,"i":0`), ""},
		{"int minus zero", task(`"kernel":-0,"i":-0`), ""},
		{"int minus zero data", access(`"data":-0,"mode":"W"`), ""},
		{"int minus one", task(`"kernel":-1,"k":-1`), ""},
		{"int minus one data", access(`"data":-1,"mode":"W"`),
			`ingest: stf: task 0 accesses data -1, out of range (outside [0,3))`},
		{"int leading zeros", task(`"kernel":007`),
			`ingest: decoding submission: task 0: unexpected '0', want ',' or '}' (offset 45)`},
		{"int leading zero data", access(`"data":01,"mode":"W"`),
			`ingest: decoding submission: task 0: access 0: unexpected '1', want ',' or '}' (offset 67)`},
		{"int minus leading zero", task(`"i":-01`),
			`ingest: decoding submission: task 0: unexpected '1', want ',' or '}' (offset 41)`},
		{"int fraction", task(`"kernel":1.0`),
			`ingest: decoding submission: task 0: 1.0 is not a 64-bit integer (offset 44)`},
		{"int fraction data", access(`"data":1.0,"mode":"W"`),
			`ingest: decoding submission: task 0: access 0: 1.0 is not a 32-bit integer (offset 66)`},
		{"int exponent", task(`"kernel":1e3`),
			`ingest: decoding submission: task 0: 1e3 is not a 64-bit integer (offset 44)`},
		{"int capital exponent", task(`"j":2E0`),
			`ingest: decoding submission: task 0: 2E0 is not a 64-bit integer (offset 39)`},
		{"int bad exponent", task(`"j":2e+`),
			`ingest: decoding submission: task 0: unexpected '}', want a digit (offset 42)`},
		{"int bad fraction", task(`"j":2.`),
			`ingest: decoding submission: task 0: unexpected '}', want a digit (offset 41)`},
		{"int letters after", task(`"kernel":12x`),
			`ingest: decoding submission: task 0: unexpected 'x', want ',' or '}' (offset 46)`},
		{"int letters after data", access(`"data":1x,"mode":"W"`),
			`ingest: decoding submission: task 0: access 0: unexpected 'x', want ',' or '}' (offset 67)`},
		{"int lone minus", task(`"kernel":-`),
			`ingest: decoding submission: task 0: unexpected '}', want a digit (offset 45)`},
		{"int minus letter", task(`"kernel":-x`),
			`ingest: decoding submission: task 0: unexpected 'x', want a digit (offset 45)`},
		{"int plus", task(`"kernel":+1`),
			`ingest: decoding submission: task 0: unexpected '+', want an integer (offset 44)`},
		{"int nine digits", task(`"kernel":999999999,"i":-999999999,"j":123456789,"k":100000000`), ""},
		{"int ten digits", task(`"kernel":1234567890,"i":-1234567890,"j":1000000000`), ""},
		{"int nine digits then fraction", task(`"kernel":123456789.5`),
			`ingest: decoding submission: task 0: 123456789.5 is not a 64-bit integer (offset 44)`},
		{"int nine digits data", access(`"data":999999999,"mode":"W"`),
			`ingest: stf: task 0 accesses data 999999999, out of range (outside [0,3))`},
		{"int 2^31-1 data", access(`"data":2147483647,"mode":"W"`),
			`ingest: stf: task 0 accesses data 2147483647, out of range (outside [0,3))`},
		{"int 2^31 data", access(`"data":2147483648,"mode":"W"`),
			`ingest: decoding submission: task 0: access 0: 2147483648 is not a 32-bit integer (offset 66)`},
		{"int -2^31 data", access(`"data":-2147483648,"mode":"W"`),
			`ingest: stf: task 0 accesses data -2147483648, out of range (outside [0,3))`},
		{"int -2^31-1 data", access(`"data":-2147483649,"mode":"W"`),
			`ingest: decoding submission: task 0: access 0: -2147483649 is not a 32-bit integer (offset 66)`},
		{"int 2^63 kernel", task(`"kernel":9223372036854775808`),
			`ingest: decoding submission: task 0: 9223372036854775808 is not a 64-bit integer (offset 44)`},
		{"int 2^63-1 kernel", task(`"kernel":9223372036854775807,"i":-9223372036854775808`), ""},
		{"int -2^63-1 kernel", task(`"kernel":-9223372036854775809`),
			`ingest: decoding submission: task 0: -9223372036854775809 is not a 64-bit integer (offset 44)`},
		{"int twenty digits num_data", `{"num_data":12345678901234567890,"tasks":[]}`,
			`ingest: decoding submission: 12345678901234567890 is not a 64-bit integer (offset 12)`},
		{"int ends the document", `{"tasks":[],"num_data":12`,
			`ingest: decoding submission: unexpected end of document, want ',' or '}' (offset 25)`},
		{"int nine digits end the document", `{"tasks":[],"num_data":123456789`,
			`ingest: decoding submission: unexpected end of document, want ',' or '}' (offset 32)`},
		{"int minus ends the document", `{"tasks":[],"num_data":-`,
			`ingest: decoding submission: unexpected end of document, want a digit (offset 24)`},
		{"int null", task(`"kernel":null,"i":null`), ""},
		{"int nul", task(`"kernel":nul`),
			`ingest: decoding submission: task 0: unexpected 'n', want an integer (offset 44)`},
		{"int string", task(`"kernel":"1"`),
			`ingest: decoding submission: task 0: unexpected '"', want an integer (offset 44)`},
		{"int space inside", task(`"kernel":1 2`),
			`ingest: decoding submission: task 0: unexpected '2', want ',' or '}' (offset 46)`},
		{"space tabs", "{\t\"name\"\t:\t\"x\",\t\"num_data\":\t3,\"tasks\":\t[\t{\t\"kernel\"\t:\t1\t,\"accesses\":[\t{\"data\"\t:2\t,\t\"mode\":\t\"RW\"\t}\t]\t}\t]\t}\t", ""},
		{"space crlf", "{\r\n  \"name\": \"x\",\r\n  \"num_data\": 3,\r\n  \"tasks\": [\r\n    {\r\n      \"kernel\": 1,\r\n      \"accesses\": [\r\n        {\r\n          \"data\": 2,\r\n          \"mode\": \"R\"\r\n        }\r\n      ]\r\n    }\r\n  ]\r\n}\r\n", ""},
		{"space at the very end", task(`"kernel":1`) + `                   `, ""},
		{"space newlines at the very end", task(`"kernel":1`) + "\n\n        \n", ""},
		{"space and then more", task(`"kernel":1`) + `         ` + `x`,
			`ingest: decoding submission: unexpected 'x' after the document (offset 57)`},
		{"space none at all", `{"name":"c","num_data":3,"tasks":[{"kernel":1,"i":2,"j":3,"k":4,"accesses":[{"data":0,"mode":"R"},{"data":1,"mode":"Red","idempotent":true},{"data":2,"mode":"RW","idempotent":false}]},{"kernel":0}]}`, ""},
		{"space only", `                 `,
			`ingest: decoding submission: unexpected end of document, want an object (offset 17)`},
		{"space vertical tab", "{\"name\":\"x\",\"num_data\":3,\"tasks\":[{\"kernel\":\x0b1}]}",
			"ingest: decoding submission: task 0: unexpected '\\v', want an integer (offset 44)"},
		{"space form feed in indentation", "{\n      \x0c \"tasks\":[]}",
			"ingest: decoding submission: unexpected '\\f', want a string (offset 8)"},
		{"space nul byte", task("\"kernel\": \x00 1"),
			"ingest: decoding submission: task 0: unexpected '\\x00', want an integer (offset 45)"},
		{"space before colon", task(`"kernel" : 1 , "i"  :  2`), ""},
		{"space two after colon", task("\"kernel\":  1,\"i\":\t 2,\"j\": \n3"), ""},
		{"key escaped", access(`"d\u0061ta":2,"mode":"W"`), ""},
		{"key escaped task", task(`"kern\u0065l":5,"\u0069":6`), ""},
		{"key folded", access(`"DATA":2,"Mode":"W","IDEMPOTENT":true`), ""},
		{"key folded kelvin", task("\"\u212aernel\":3"), ""},
		{"key repeated", access(`"data":1,"mode":"W","data":2`),
			`ingest: decoding submission: task 0: access 0: repeated key "data" (offset 79)`},
		{"key repeated folded", access(`"data":1,"mode":"W","Data":2`),
			`ingest: decoding submission: task 0: access 0: repeated key "data" (offset 79)`},
		{"key repeated escaped", task(`"kernel":1,"kern\u0065l":2`),
			`ingest: decoding submission: task 0: repeated key "kernel" (offset 46)`},
		{"key repeated unknown", task(`"kernel":1,"x":1,"x":2`), ""},
		{"key proper prefix", access(`"dat":7,"data":2,"mode":"W"`), ""},
		{"key extension", access(`"data2":7,"data":2,"mode":"W"`), ""},
		{"key prefix and extension only", access(`"dat":1,"data2":2,"mod":"W","modes":"R"`),
			`ingest: task 0: access 0: unknown access mode "" (offset 58)`},
		{"key empty", task(`"":1,"kernel":2`), ""},
		{"key quote inside", task(`"kernel\"":1,"kernel":2`), ""},
		{"key unterminated", `{"tasks":[{"kernel`,
			`ingest: decoding submission: task 0: unexpected end of document in string (offset 18)`},
		{"key unterminated after match", `{"tasks":[{"kernel"`,
			`ingest: decoding submission: task 0: unexpected end of document, want ':' (offset 19)`},
		{"key no colon", task(`"kernel" 1`),
			`ingest: decoding submission: task 0: unexpected '1', want ':' (offset 44)`},
		{"key not a string", task(`kernel:1`),
			`ingest: decoding submission: task 0: unexpected 'k', want a string (offset 35)`},
		{"key with space", task(`"kernel ":1,"kernel":2`), ""},
		{"key k and kernel", task(`"k":1,"kernel":2,"i":3,"j":4`), ""},
		{"mode null", access(`"data":0,"mode":null`),
			`ingest: task 0: access 0: unknown access mode "" (offset 75)`},
		{"mode lower case", access(`"data":0,"mode":"r"`),
			`ingest: task 0: access 0: unknown access mode "r" (offset 75)`},
		{"mode trailing space", access(`"data":0,"mode":"RW "`),
			`ingest: task 0: access 0: unknown access mode "RW " (offset 75)`},
		{"mode empty", access(`"data":0,"mode":""`),
			`ingest: task 0: access 0: unknown access mode "" (offset 75)`},
		{"mode escaped", access(`"data":0,"mode":"R\u0065d"`), ""},
		{"mode None", access(`"data":0,"mode":"None"`),
			`ingest: task 0: access 0: unknown access mode "None" (offset 75)`},
		{"mode every one", task(`"accesses":[{"data":0,"mode":"R"},{"data":1,"mode":"W"},{"data":2,"mode":"RW"}]`), ""},
		{"mode Red", access(`"data":0,"mode":"Red"`), ""},
		{"mode missing in second task", `{"num_data":2,"tasks":[{"accesses":[{"data":0,"mode":"W"}]},{"accesses":[{"data":0,"mode":"R"},{"data":1}]}]}`,
			`ingest: task 1: access 1: unknown access mode "" (offset 95)`},
		{"mode null access", `{"name":"x","num_data":3,"tasks":[null,{"kernel":1,"accesses":[null,{"data":0,"mode":"W"}]}]}`,
			`ingest: task 1: access 0: unknown access mode "" (offset 63)`},
	}
	rows = append(rows, departureRows()...)
	// Runs of spaces around the eight the skipper moves at a time, between
	// tokens and as indentation.
	for _, n := range []int{7, 8, 9, 17} {
		spaced := func(form string) string { return strings.ReplaceAll(form, "~", strings.Repeat(" ", n)) }
		rows = append(rows,
			fastPathRow{fmt.Sprintf("space runs of %d", n),
				spaced(`{~"name":~"x",~"num_data"~:~3,"tasks":[~{~"kernel":~1~,"accesses":[~{"data":2~,"mode":~"W"~}~]~}~]~}`), ""},
			fastPathRow{fmt.Sprintf("space newline and %d", n),
				spaced("{\n~\"name\": \"x\",\n~\"num_data\": 3,\n~\"tasks\": [\n~{\n~\"kernel\": 1\n~}\n~]\n~}"), ""})
	}
	return rows
}

// laidOut is a task as WriteJSON indents it in a flow, with every member
// and two accesses, for v: kernel v, i v+1, j v+2, k v+3, data v and v+1
// (mod 8).
func laidOut(v int) string {
	return fmt.Sprintf(`{
      "kernel": %d,
      "i": %d,
      "j": %d,
      "k": %d,
      "accesses": [
        {
          "data": %d,
          "mode": "R"
        },
        {
          "data": %d,
          "mode": "RW"
        }
      ]
    }`, v, v+1, v+2, v+3, v%8, (v+1)%8)
}

// flow is a flow over eight data of the given tasks, in WriteJSON's
// indentation.
func flow(tasks ...string) string {
	return "{\n  \"name\": \"layout\",\n  \"num_data\": 8,\n  \"tasks\": [\n    " +
		strings.Join(tasks, ",\n    ") + "\n  ]\n}\n"
}

// departure is a flow whose first two tasks set a layout, whose third is
// the one given, and whose fourth has the layout of the first two again.
func departure(third string) string { return flow(laidOut(1), laidOut(2), third, laidOut(3)) }

// nth replaces the n-th occurrence of old in s with new.
func nth(s, old, new string, n int) string {
	at := 0
	for ; n > 0; n-- {
		at += strings.Index(s[at:], old) + len(old)
	}
	at += strings.Index(s[at:], old)
	return s[:at] + new + s[at+len(old):]
}

// departureRows are flows of several tasks in which a task departs from
// the layout of the tasks before it: the speculative reader must give it
// to the general reader, whose answer these rows are, and read the task
// after it by the layout again. Every separator of a task is departed from
// with white space more, less or other — at each newline, after each
// colon, before each comma — and a task departs in each other way the
// general reader reads differently: spelling, key order, members first
// seen, members speculation does not read, values it does not read, and
// errors.
func departureRows() []fastPathRow {
	var rows []fastPathRow
	task := laidOut(5)
	for n := range strings.Count(task, "\n") {
		for _, m := range [][3]string{{"space more", "\n", "\n "}, {"space less", "\n ", "\n"}, {"tab", "\n", "\n\t"}, {"crlf", "\n", "\r\n"}} {
			rows = append(rows, fastPathRow{fmt.Sprintf("layout %s at newline %d", m[0], n), departure(nth(task, m[1], m[2], n)), ""})
		}
	}
	for n := range strings.Count(task, `": `) {
		rows = append(rows,
			fastPathRow{fmt.Sprintf("layout no space after colon %d", n), departure(nth(task, `": `, `":`, n)), ""},
			fastPathRow{fmt.Sprintf("layout two spaces after colon %d", n), departure(nth(task, `": `, `":  `, n)), ""},
			fastPathRow{fmt.Sprintf("layout space before colon %d", n), departure(nth(task, `": `, `" : `, n)), ""})
	}
	for n := range strings.Count(task, ",") {
		rows = append(rows, fastPathRow{fmt.Sprintf("layout space before comma %d", n), departure(nth(task, ",", " ,", n)), ""})
	}
	noIJK := strings.NewReplacer("      \"i\": 2,\n", "", "      \"j\": 3,\n", "", "      \"k\": 4,\n", "").Replace(laidOut(1))
	oneAccess := nth(laidOut(1), "},\n        {\n          \"data\": 2,\n          \"mode\": \"RW\"\n", "", 0)
	head, _, _ := strings.Cut(task, "[")
	doc := departure(task)
	truncated := doc[:strings.Index(doc, `"kernel": 5`)+len(`"kernel": 5`)]
	return append(rows,
		fastPathRow{"layout kept", departure(task), ""},
		fastPathRow{"layout compact task", departure(`{"kernel":5,"i":6,"j":7,"k":8,"accesses":[{"data":5,"mode":"R"},{"data":6,"mode":"RW"}]}`), ""},
		fastPathRow{"layout compact tasks first", flow(`{"kernel":1,"i":2,"j":3,"k":4,"accesses":[{"data":1,"mode":"R"},{"data":2,"mode":"RW"}]}`, `{"kernel":2,"i":3,"j":4,"k":5,"accesses":[{"data":2,"mode":"R"},{"data":3,"mode":"RW"}]}`, task, `{"kernel":3,"accesses":[{"data":3,"mode":"W"}]}`), ""},
		fastPathRow{"layout tasks alternating", flow(laidOut(1), `{"kernel":2,"i":3,"accesses":[{"data":2,"mode":"R"}]}`, laidOut(3), `{"kernel":4,"i":5,"accesses":[{"data":4,"mode":"Red"}]}`, laidOut(5)), ""},
		fastPathRow{"layout keys reordered", departure(nth(nth(task, `"kernel": 5`, `"i": 6`, 0), `"i": 6`, `"kernel": 5`, 1)), ""},
		fastPathRow{"layout accesses first", departure(`{"accesses": [{"data": 5, "mode": "R"}], "kernel": 5}`), ""},
		fastPathRow{"layout mode first", departure(nth(nth(task, `"data": 5`, `"mode": "R"`, 0), `"mode": "R"`, `"data": 5`, 1)), ""},
		fastPathRow{"layout i j k first seen", flow(noIJK, noIJK, task, laidOut(3)), ""},
		fastPathRow{"layout second access first seen", flow(oneAccess, oneAccess, task, laidOut(3)), ""},
		fastPathRow{"layout no accesses first seen", departure(`{
      "kernel": 5,
      "k": 8
    }`), ""},
		fastPathRow{"layout empty task", departure(`{}`), ""},
		fastPathRow{"layout empty task twice", flow(`{}`, `{}`, `{ }`, `{}`), ""},
		fastPathRow{"layout null task", departure(`null`), ""},
		fastPathRow{"layout idempotent", departure(nth(task, `"mode": "RW"`, `"mode": "RW",
          "idempotent": true`, 0)), ""},
		fastPathRow{"layout accesses empty", departure(head + "[]\n    }"), ""},
		fastPathRow{"layout accesses null", departure(`{
      "kernel": 5,
      "accesses": null
    }`), ""},
		fastPathRow{"layout access null", departure(nth(task, "{\n          \"data\": 6", "null,\n        {\n          \"data\": 6", 0)),
			`ingest: task 2: access 1: unknown access mode "" (offset 671)`},
		fastPathRow{"layout access empty", departure(nth(task, "{\n          \"data\": 6", "{},\n        {\n          \"data\": 6", 0)),
			`ingest: task 2: access 1: unknown access mode "" (offset 671)`},
		fastPathRow{"layout ten-digit kernel", departure(nth(task, `"kernel": 5`, `"kernel": 1234567890`, 0)), ""},
		fastPathRow{"layout ten-digit data", departure(nth(task, `"data": 5`, `"data": 1234567890`, 0)),
			`ingest: stf: task 2 accesses data 1234567890, out of range (outside [0,8))`},
		fastPathRow{"layout leading zeros", departure(nth(task, `"i": 6`, `"i": 007`, 0)),
			`ingest: decoding submission: task 2: unexpected '0', want ',' or '}' (offset 549)`},
		fastPathRow{"layout negative", departure(nth(task, `"k": 8`, `"k": -8`, 0)), ""},
		fastPathRow{"layout fraction", departure(nth(task, `"j": 7`, `"j": 7.0`, 0)),
			`ingest: decoding submission: task 2: 7.0 is not a 64-bit integer (offset 562)`},
		fastPathRow{"layout null value", departure(nth(task, `"j": 7`, `"j": null`, 0)), ""},
		fastPathRow{"layout mode trailing space", departure(nth(task, `"RW"`, `"RW "`, 0)),
			`ingest: task 2: access 1: unknown access mode "RW " (offset 712)`},
		fastPathRow{"layout mode Re", departure(nth(task, `"RW"`, `"Re"`, 0)),
			`ingest: task 2: access 1: unknown access mode "Re" (offset 712)`},
		fastPathRow{"layout mode RWW", departure(nth(task, `"RW"`, `"RWW"`, 0)),
			`ingest: task 2: access 1: unknown access mode "RWW" (offset 712)`},
		fastPathRow{"layout mode escaped", departure(nth(task, `"RW"`, `"R\u0065d"`, 0)), ""},
		fastPathRow{"layout mode lower case", departure(nth(task, `"R"`, `"r"`, 0)),
			`ingest: task 2: access 0: unknown access mode "r" (offset 648)`},
		fastPathRow{"layout mode missing", departure(nth(task, `,
          "mode": "RW"`, ``, 0)),
			`ingest: task 2: access 1: unknown access mode "" (offset 671)`},
		fastPathRow{"layout data missing", departure(nth(task, `"data": 6,
          `, ``, 0)), ""},
		fastPathRow{"layout repeated key", departure(nth(task, `"k": 8`, `"k": 8,
      "kernel": 5`, 0)),
			`ingest: decoding submission: task 2: repeated key "kernel" (offset 585)`},
		fastPathRow{"layout repeated access key", departure(nth(task, `"mode": "R"`, `"mode": "R",
          "data": 5`, 0)),
			`ingest: decoding submission: task 2: access 0: repeated key "data" (offset 663)`},
		fastPathRow{"layout repeated accesses", departure(nth(task, "\n    }", `,
      "accesses": []
    }`, 0)),
			`ingest: decoding submission: task 2: repeated key "accesses" (offset 742)`},
		fastPathRow{"layout unknown key", departure(nth(task, `"j": 7`, `"jj": 7,
      "j": 7`, 0)), ""},
		fastPathRow{"layout unknown access key", departure(nth(task, `"mode": "R"`, `"mode": "R",
          "note": {"data": 1, "mode": "W"}`, 0)), ""},
		fastPathRow{"layout skipped member in a separator", flow(`{"kernel":1,"i":2,"accesses":[{"data":0,"mode":"R"}]}`, `{"kernel":1,"accesses":null,"i":2}`, `{"kernel":1,"accesses":null,"i":2,"accesses":[{"data":0,"mode":"R"}]}`),
			`ingest: decoding submission: task 2: repeated key "accesses" (offset 189)`},
		fastPathRow{"layout repeated key after keys reordered", flow(`{"i":1,"kernel":2,"accesses":[{"data":0,"mode":"R"}]}`, `{"kernel":1,"i":2,"accesses":[{"data":0,"mode":"R"}]}`, `{"kernel":1,"i":2,"kernel":3,"accesses":[{"data":0,"mode":"R"}]}`),
			`ingest: decoding submission: task 2: repeated key "kernel" (offset 192)`},
		fastPathRow{"layout key folded", departure(nth(task, `"kernel"`, `"Kernel"`, 0)), ""},
		fastPathRow{"layout document ends in a task", truncated,
			`ingest: decoding submission: task 2: unexpected end of document, want ',' or '}' (offset 535)`},
	)
}

// TestFastPathsFallThrough: each row draws the error the scanner gave
// before it had fast paths, or none, and is read as the encoding/json
// reference reads it: the same graph under the same hash, or rejected by
// both (but for a repeated key, which only the scanner rejects).
func TestFastPathsFallThrough(t *testing.T) {
	for _, row := range fastPathRows() {
		t.Run(row.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(row.body), fuzzWorkers)
			if got := fmt.Sprint(err); err == nil && row.err != "" || err != nil && got != row.err {
				t.Errorf("Parse: %v, want %q\n%s", err, row.err, row.body)
			}
			matchReference(t, []byte(row.body))
		})
	}
}
