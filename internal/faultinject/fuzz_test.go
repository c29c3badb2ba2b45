package faultinject

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseSchedule feeds arbitrary bytes to the schedule parser — the
// file `anonsim -faults` and `anonctl chaos -schedule` read. It must
// reject or return a schedule every backend can replay: valid for the
// world, times that never run backwards once reverts are expanded, and
// a JSONL encoding that parses back to the same schedule.
func FuzzParseSchedule(f *testing.F) {
	f.Add([]byte(`{"at_ms":4000,"kind":"crash","target":2,"peer":-1,"dur_ms":8000}
{"at_ms":14000,"kind":"partition","target":0,"peer":1,"dur_ms":8000}
`))
	f.Add([]byte("# comment\n\n{\"at_ms\":1,\"kind\":\"drop\",\"target\":7,\"value\":0.5}\n"))
	f.Add([]byte(`{"at_ms":1,"kind":"slow","target":0,"peer":3,"value":2.5,"dur_ms":10}`))
	f.Add([]byte(`{"at_ms":9223372036854775807,"kind":"crash","target":0,"dur_ms":1}`))
	f.Add([]byte(`{"at_ms":5,"kind":"latency","target":0,"peer":0,"value":1e300}`))
	f.Add([]byte(`{"at_ms":5,"kind":"heal","target":9}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const nodes = 8
		s, err := ParseSchedule(bytes.NewReader(data), nodes)
		if err != nil {
			return
		}
		if err := s.Validate(nodes); err != nil {
			t.Fatalf("accepted schedule does not validate: %v", err)
		}
		exp := s.Expanded()
		for i, e := range exp {
			if e.AtMS < 0 || e.AtMS > s.End() || i > 0 && e.AtMS < exp[i-1].AtMS {
				t.Fatalf("expanded event %d at %d ms: before its predecessor, negative or past End() = %d", i, e.AtMS, s.End())
			}
		}
		var buf bytes.Buffer
		if err := WriteSchedule(&buf, s); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSchedule(&buf, nodes)
		if err != nil || !reflect.DeepEqual(back, s) {
			t.Fatalf("schedule does not round-trip (err %v):\n%+v\n%+v", err, s, back)
		}
	})
}
