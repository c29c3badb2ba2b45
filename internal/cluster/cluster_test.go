package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientmix/internal/livenet"
	"resilientmix/internal/netsim"
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

	// The roster reads back through the codec anonnode uses and includes
	// the client identity; a key file exists for every identity.
	roster, err := livenet.ReadRoster(m.Roster)
	if err != nil {
		t.Fatal(err)
	}
	if roster.Size() != 4 {
		t.Fatalf("roster has %d peers, want 4", roster.Size())
	}
	for i := 0; i < 4; i++ {
		priv, err := livenet.ReadKey(filepath.Join(dir, fmt.Sprintf("node%d.key", i)))
		if err != nil || len(priv) == 0 {
			t.Fatalf("key file %d: %d bytes, %v", i, len(priv), err)
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

// TestPlanPathsUsesEveryNode: whatever the fleet size, every node but
// the responder relays on exactly one path (an idle relay trips
// silent-relay and fails the smoke's zero-alert gate), paths are two
// relays long with at most the last one three, and r is 2 exactly when
// the path count is even.
func TestPlanPathsUsesEveryNode(t *testing.T) {
	for n := 4; n <= 9; n++ {
		lists, responder, r, err := planPaths(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if responder != netsim.NodeID(n-1) {
			t.Errorf("n=%d: responder %d, want %d", n, responder, n-1)
		}
		if want := 2 - len(lists)%2; r != want {
			t.Errorf("n=%d: r=%d with %d paths, want %d", n, r, len(lists), want)
		}
		uses := make(map[netsim.NodeID]int)
		for i, relays := range lists {
			if len(relays) != 2 && !(len(relays) == 3 && i == len(lists)-1) {
				t.Errorf("n=%d: path %d has %d relays: %v", n, i, len(relays), lists)
			}
			for _, id := range relays {
				uses[id]++
			}
		}
		for id := netsim.NodeID(0); id < responder; id++ {
			if uses[id] != 1 {
				t.Errorf("n=%d: node %d is on %d paths, want 1: %v", n, id, uses[id], lists)
			}
		}
		if uses[responder] != 0 {
			t.Errorf("n=%d: the responder relays: %v", n, lists)
		}
	}
	if _, _, _, err := planPaths(3); err == nil {
		t.Error("planPaths(3) accepted: one relay cannot make a path")
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
