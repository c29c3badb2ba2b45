package tsdb

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the recording decoder — what
// `anonctl replay -in` and any consumer of `status -json` parse. It
// must reject or load without panicking, whatever capacity the header
// claims, and a stream it loads must survive its own encoding: dumping
// the store, reloading the dump and dumping again yields the same
// bytes.
func FuzzRead(f *testing.F) {
	f.Add([]byte("{\"tsdb\":1,\"cap\":4}\n" +
		"{\"at\":1,\"s\":\"up{node=\\\"0\\\"}\",\"v\":\"1\"}\n" +
		"{\"at\":2,\"s\":\"up{node=\\\"0\\\"}\",\"v\":\"NaN\"}\n" +
		"{\"at\":2,\"kind\":\"node-down\",\"series\":\"up{node=\\\"0\\\"}\",\"v\":\"0\",\"detail\":\"d\"}\n"))
	f.Add([]byte("{\"tsdb\":1,\"cap\":1000000000000000}\n{\"at\":1,\"s\":\"x\",\"v\":\"+Inf\"}\n"))
	f.Add([]byte("{\"tsdb\":1,\"cap\":1}\n{\"at\":1,\"s\":\"x{\",\"v\":\"1\"}\n{\"at\":0,\"s\":\"x\",\"v\":\"2\"}\n{\"at\":3,\"s\":\"x\",\"v\":\"3\"}\n"))
	f.Add([]byte("{\"tsdb\":2}\n"))
	f.Add([]byte("{\"at\":1,\"s\":\"x\",\"v\":\"1\"}\n"))
	f.Add([]byte{})
	dir := f.TempDir()
	dump := func(t *testing.T, db *DB, name string) []byte {
		path := filepath.Join(dir, name)
		if err := db.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := dump(t, db, "first.tsdb")
		again, err := Read(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("the store's own dump does not load: %v\n%s", err, first)
		}
		if second := dump(t, again, "second.tsdb"); !bytes.Equal(first, second) {
			t.Fatalf("dump changed across a reload:\n--- first ---\n%s--- second ---\n%s", first, second)
		}
	})
}
