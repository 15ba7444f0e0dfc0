package verify

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseScenario feeds arbitrary bytes to the replay decoder — the
// one path by which a hand-edited file reaches the oracles — and
// requires an error, or input that is exactly one JSON value and a
// scenario that passes Validate and survives its own replay form:
// MarshalIndent of it parses back to the same value.
func FuzzParseScenario(f *testing.F) {
	for i := 0; i < 6; i++ {
		js, err := Generate(3, i).MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	const valid = `"generator":"er","vertices":64,"edgeFactor":2,"kernel":"bfs","partitioner":"hash","partitions":2,"computeNodes":1,"workers":1`
	f.Add([]byte(`{` + valid + `}`))
	f.Add([]byte(`{` + valid + `,"typo_field":true}`))
	f.Add([]byte(`{` + valid + `,"cluster":true,"fault":{"seed":18446744073709551615,"drop":1e-320,"crashes":[]}}`))
	f.Add([]byte(`{` + valid + `,"fault":{"crashes":[{"node":1,"iteration":0},{"node":1,"iteration":2}]}}`))
	f.Add([]byte(`{` + valid + `,"vertices":1e3}`))
	f.Add([]byte(`{` + valid + `} trailing`))
	f.Add([]byte(`{` + valid + `}{` + valid + `}`))
	f.Add([]byte(`{` + valid + "}\n"))
	f.Add([]byte(`[{` + valid + `}]`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseScenario(data)
		if err != nil {
			if !reflect.DeepEqual(sc, Scenario{}) {
				t.Fatalf("ParseScenario failed (%v) yet returned %+v", err, sc)
			}
			return
		}
		if !json.Valid(data) {
			t.Fatalf("ParseScenario accepted input that is not exactly one JSON value: %q", data)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("ParseScenario accepted what Validate refuses: %v\n%+v", err, sc)
		}
		js, err := sc.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v\n%+v", err, sc)
		}
		back, err := ParseScenario(js)
		if err != nil {
			t.Fatalf("replay form is refused: %v\n%s", err, js)
		}
		// An empty crash list is omitted from the replay form and comes
		// back nil; nothing tells the two apart.
		if len(sc.Fault.Crashes) == 0 {
			sc.Fault.Crashes = nil
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("replay changed the scenario:\n%+v\n%+v\n%s", sc, back, js)
		}
	})
}
