package ingest

// The fast paths of internal/stf/scan.go — a key compared in place, a
// short integer accumulated where it stands, indentation skipped eight
// bytes at a time, one space after a colon, modes by switch — each sit in
// front of the general reader and must hand over to it without a trace.
// These rows stand at the edges of each: the input a fast path takes, the
// nearest input it must leave alone, and what the general reader then
// says. The error texts are those of the scanner before it had fast paths
// (PR 20), offsets included. The bodies are fuzz seeds too (wireSeeds).

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
