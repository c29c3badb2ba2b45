package livenet

import (
	"bytes"
	"crypto/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// TestKeyAndRosterFilesRoundTrip: what EncodeKey and EncodeRoster write,
// ReadKey and ReadRoster read back unchanged.
func TestKeyAndRosterFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var peers []Peer
	for i := 0; i < 3; i++ {
		kp, err := onioncrypt.ECIES{}.GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "node.key")
		if err := os.WriteFile(path, EncodeKey(kp), 0o600); err != nil {
			t.Fatal(err)
		}
		priv, err := ReadKey(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(priv, kp.Private) {
			t.Fatalf("key %d read back as %x, wrote %x", i, priv, kp.Private)
		}
		peers = append(peers, Peer{ID: netsim.NodeID(i), Addr: "127.0.0.1:900" + string(rune('0'+i)), Public: kp.Public})
	}
	want, err := NewRoster(peers)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "roster.json")
	if err := os.WriteFile(path, EncodeRoster(peers), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRoster(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roster read back as %+v, wrote %+v", got, want)
	}
}

// TestKeyAndRosterFilesRejectMalformed: a file from outside the program
// is an error, never a roster with a hole in it.
func TestKeyAndRosterFilesRejectMalformed(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) string {
		t.Helper()
		path := filepath.Join(dir, "f.json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for name, body := range map[string]string{
		"not JSON":         `{"peers": [`,
		"bad hex key":      `{"peers": [{"id": 0, "addr": "a:1", "pub": "zz"}]}`,
		"unknown peer id":  `{"peers": [{"id": 0, "addr": "a:1", "pub": "00"}, {"id": 7, "addr": "b:1", "pub": "01"}]}`,
		"negative peer id": `{"peers": [{"id": -1, "addr": "a:1", "pub": "00"}]}`,
		"duplicate id":     `{"peers": [{"id": 0, "addr": "a:1", "pub": "00"}, {"id": 0, "addr": "b:1", "pub": "01"}]}`,
		"no peers":         `{}`,
	} {
		if r, err := ReadRoster(write(body)); err == nil {
			t.Errorf("roster with %s accepted: %+v", name, r)
		}
	}
	for name, body := range map[string]string{
		"not JSON": `pub=00`,
		"bad hex":  `{"pub": "00", "priv": "0g"}`,
	} {
		if k, err := ReadKey(write(body)); err == nil {
			t.Errorf("key file with %s accepted: %x", name, k)
		}
	}
	if _, err := ReadKey(filepath.Join(dir, "absent.key")); err == nil {
		t.Error("missing key file accepted")
	}
	if _, err := ReadRoster(filepath.Join(dir, "absent.json")); err == nil || !strings.Contains(err.Error(), "absent.json") {
		t.Errorf("missing roster file: %v", err)
	}
}
