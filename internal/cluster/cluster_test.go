package cluster

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientmix/internal/obs"
	"resilientmix/internal/obs/analyze"
)

func TestGenerateWritesCompleteBundle(t *testing.T) {
	dir := t.TempDir()
	m, err := Generate(dir, Spec{Nodes: 3, Client: true, BasePort: 21000})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 3 || m.Client == nil || m.Client.ID != 3 {
		t.Fatalf("manifest shape wrong: %+v", m)
	}

	// Roster must include the client identity and decode as hex keys.
	blob, err := os.ReadFile(m.Roster)
	if err != nil {
		t.Fatal(err)
	}
	var rf rosterFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		t.Fatal(err)
	}
	if len(rf.Peers) != 4 {
		t.Fatalf("roster has %d peers, want 4", len(rf.Peers))
	}
	for _, p := range rf.Peers {
		if _, err := hex.DecodeString(p.Pub); err != nil || p.Pub == "" {
			t.Fatalf("peer %d public key not hex: %q", p.ID, p.Pub)
		}
		if p.Addr == "" {
			t.Fatalf("peer %d has no address", p.ID)
		}
	}

	// Key files exist for every identity, including the client's.
	for i := 0; i < 4; i++ {
		var kf keyFile
		blob, err := os.ReadFile(filepath.Join(dir, "node"+string(rune('0'+i))+".key"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(blob, &kf); err != nil {
			t.Fatal(err)
		}
		if kf.Priv == "" || kf.Pub == "" {
			t.Fatalf("key file %d incomplete", i)
		}
	}

	// Procfile covers every spawned node (not the in-process client).
	proc, err := os.ReadFile(filepath.Join(dir, "Procfile"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(proc)), "\n")
	if len(lines) != 3 {
		t.Fatalf("Procfile has %d lines, want 3:\n%s", len(lines), proc)
	}
	for _, l := range lines {
		if !strings.Contains(l, "-collector") || !strings.Contains(l, "-debug") {
			t.Fatalf("Procfile line lacks flags: %q", l)
		}
	}

	// Manifest round-trips through cluster.json.
	back, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != 3 || back.Client == nil || back.Roster != m.Roster {
		t.Fatalf("manifest round trip: %+v", back)
	}
}

func TestGenerateRejectsTinyCluster(t *testing.T) {
	if _, err := Generate(t.TempDir(), Spec{Nodes: 1}); err == nil {
		t.Fatal("1-node cluster accepted")
	}
}

func TestMergeAndWriteTraceRoundTrip(t *testing.T) {
	a := []obs.Event{
		{Type: obs.SegmentSent, At: 5, Node: 0, Peer: 2, ID: 1, Slot: 0, Hop: -1},
		{Type: obs.MsgSent, At: 9, Node: 0, Peer: 1, ID: 7, Slot: -1, Hop: -1},
	}
	b := []obs.Event{
		{Type: obs.MsgDelivered, At: 7, Node: 2, Peer: 1, ID: 7, Slot: -1, Hop: -1},
		{Type: obs.SegmentReconstructed, At: 12, Node: 2, Peer: -1, ID: 1, Seq: 1, Slot: -1, Hop: -1},
	}
	merged := MergeTraces(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].At < merged[i-1].At {
			t.Fatalf("merge not time-ordered at %d: %+v", i, merged)
		}
	}
	path := filepath.Join(t.TempDir(), "live.jsonl.gz")
	if err := WriteTrace(path, merged); err != nil {
		t.Fatal(err)
	}
	res, err := analyze.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.EventsAnalyzed != 4 || res.Summary.Delivered != 1 {
		t.Fatalf("trace round trip analysis wrong: %+v", res.Summary)
	}
}

func TestWaitReadyTimesOut(t *testing.T) {
	r := &Runner{Manifest: Manifest{Nodes: []ManifestNode{{ID: 0, Debug: "127.0.0.1:1"}}}}
	start := time.Now()
	if err := r.WaitReady(300 * time.Millisecond); err == nil {
		t.Fatal("WaitReady succeeded against a dead address")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitReady did not respect its timeout")
	}
}
