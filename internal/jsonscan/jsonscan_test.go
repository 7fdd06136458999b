package jsonscan

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzValue holds the Reader to json.Valid: a text is one valid JSON value
// exactly when Value reads it with nothing but whitespace left, and then
// the value is the text without its surrounding whitespace.
func FuzzValue(f *testing.F) {
	for _, text := range []string{
		` {"a": [1, -2.5e+3, "xé\"", true, false, null], "b": {}} `, `[]`, `[[]]`, `{"a":{"b":[{}]}}`,
		"\"\xff\xfe\"", "\"\x7f\"", "\"a\x01\"", `"𐀀"`, `"\u12"`, `"\x"`, `"\/"`, `"`, `"\`,
		`0`, `-0`, `01`, `-`, `1.`, `.5`, `+1`, `1e`, `1e+`, `1E-07`, `1.5e3`, `0.0`, `-0.0e0`,
		`tru`, `true`, `truex`, `nul`, `null`, `nulls`, `fals`, `false`, ``, ` `, "\t\n\r ", "\v1", "\xef\xbb\xbf1",
		`[1,]`, `[,1]`, `[1 2]`, `{"a" 1}`, `{"a":1,}`, `{,}`, `{1:2}`, `{"a":1}}`, `[1]]`, `1 2`,
		strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth),
		strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1),
		strings.Repeat(`{"a":`, maxDepth) + "1" + strings.Repeat("}", maxDepth),
		strings.Repeat(`{"a":`, maxDepth+1) + "1" + strings.Repeat("}", maxDepth+1),
	} {
		f.Add([]byte(text))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		r := NewReader(text)
		v, err := r.Value()
		if err == nil {
			err = r.End()
		}
		if valid := json.Valid(text); valid != (err == nil) {
			t.Fatalf("%q: json.Valid %v, Reader error %v", text, valid, err)
		}
		if err == nil && string(v) != strings.Trim(string(text), " \t\n\r") {
			t.Fatalf("%q: value %q", text, v)
		}
	})
}

// TestField resolves keys as json.Unmarshal resolves struct fields: exact
// name first, then Unicode case folding, escapes decoded first.
func TestField(t *testing.T) {
	names := []string{"query", "queries", "k", "params"}
	for key, want := range map[string]int{
		`"query"`: 0, `"QUERY"`: 0, `"\u0071uery"`: 0, `"queries"`: 1, `"QueRies"`: 1,
		`"querie\u017f"`: 1, "\"querie\u017f\"": 1, `"k"`: 2, `"K"`: 2, `"\u212a"`: 2, "\"\u212a\"": 2,
		`"params"`: 3, `"x"`: -1, `""`: -1, `"query "`: -1, "\"\xffk\"": -1, `"\ud800"`: -1,
	} {
		if got := Field([]byte(key), names); got != want {
			t.Errorf("Field(%s) = %d, want %d", key, got, want)
		}
	}
}
