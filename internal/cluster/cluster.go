// Package cluster is the local-deployment harness behind cmd/anonctl:
// it generates keys, rosters and a Procfile for an N-node anonnode
// cluster, spawns and supervises the processes, and observes the fleet
// through one pipeline — the Recorder polls every node into an embedded
// time-series store (internal/obs/tsdb), the standing rules
// (internal/obs/rules) flag anomalies on it, and RenderWatch draws it.
// Beside that it drives in-process client traffic and captures and
// merges /debug/trace streams.
package cluster

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"resilientmix/internal/livenet"
	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// Spec describes the cluster to generate.
type Spec struct {
	// Nodes is the number of anonnode processes.
	Nodes int
	// Client reserves one extra roster identity (id == Nodes) for an
	// in-process traffic client; no process is spawned for it.
	Client bool
	// Host is the bind host; empty selects 127.0.0.1.
	Host string
	// BasePort is the first livenet port (node i listens on
	// BasePort+i); zero selects 19000.
	BasePort int
	// DebugBase is the first debug-HTTP port (node i serves on
	// DebugBase+i); zero selects BasePort+100.
	DebugBase int
}

// ManifestNode records one generated node identity.
type ManifestNode struct {
	ID    int    `json:"id"`
	Addr  string `json:"addr"`
	Debug string `json:"debug,omitempty"`
	Key   string `json:"key"`
}

// Manifest is the on-disk description of a generated cluster
// (cluster.json in the cluster directory).
type Manifest struct {
	Dir    string         `json:"-"`
	Roster string         `json:"roster"`
	Nodes  []ManifestNode `json:"nodes"`
	// Client is the reserved in-process traffic identity, if any.
	Client *ManifestNode `json:"client,omitempty"`
}

// Generate writes a complete cluster bundle into dir: per-node key
// files, roster.json, a Procfile (one anonnode invocation per line)
// and cluster.json (the returned manifest).
func Generate(dir string, spec Spec) (Manifest, error) {
	if spec.Nodes < 2 {
		return Manifest{}, fmt.Errorf("cluster: need at least 2 nodes, got %d", spec.Nodes)
	}
	if spec.Host == "" {
		spec.Host = "127.0.0.1"
	}
	if spec.BasePort == 0 {
		spec.BasePort = 19000
	}
	if spec.DebugBase == 0 {
		spec.DebugBase = spec.BasePort + 100
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Manifest{}, err
	}

	total := spec.Nodes
	if spec.Client {
		total++
	}
	m := Manifest{Dir: dir, Roster: filepath.Join(dir, "roster.json")}
	var peers []livenet.Peer
	suite := onioncrypt.ECIES{}
	for i := 0; i < total; i++ {
		kp, err := suite.GenerateKeyPair(rand.Reader)
		if err != nil {
			return Manifest{}, err
		}
		keyPath := filepath.Join(dir, fmt.Sprintf("node%d.key", i))
		if err := os.WriteFile(keyPath, livenet.EncodeKey(kp), 0o600); err != nil {
			return Manifest{}, err
		}
		addr := net.JoinHostPort(spec.Host, strconv.Itoa(spec.BasePort+i))
		peers = append(peers, livenet.Peer{ID: netsim.NodeID(i), Addr: addr, Public: kp.Public})
		mn := ManifestNode{ID: i, Addr: addr, Key: keyPath}
		if i < spec.Nodes {
			mn.Debug = net.JoinHostPort(spec.Host, strconv.Itoa(spec.DebugBase+i))
			m.Nodes = append(m.Nodes, mn)
		} else {
			c := mn
			m.Client = &c
		}
	}

	if err := os.WriteFile(m.Roster, livenet.EncodeRoster(peers), 0o644); err != nil {
		return Manifest{}, err
	}

	// Procfile: one line per node, runnable by hand or any procfile
	// runner; anonctl itself spawns from the manifest.
	var proc []byte
	for _, n := range m.Nodes {
		proc = append(proc, fmt.Sprintf("node%d: anonnode %s\n", n.ID, joinArgs(nodeArgs(m, n)))...)
	}
	if err := os.WriteFile(filepath.Join(dir, "Procfile"), proc, 0o644); err != nil {
		return Manifest{}, err
	}

	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Manifest{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "cluster.json"), append(blob, '\n'), 0o644); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// LoadManifest reads cluster.json back from a cluster directory.
func LoadManifest(dir string) (Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "cluster.json"))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return Manifest{}, fmt.Errorf("cluster: parsing cluster.json: %w", err)
	}
	m.Dir = dir
	return m, nil
}

// nodeArgs builds the anonnode argument list for one node. Every node
// runs with -collector so any of them can terminate erasure-coded
// session traffic.
func nodeArgs(m Manifest, n ManifestNode) []string {
	return []string{
		"-roster", m.Roster,
		"-key", n.Key,
		"-id", strconv.Itoa(n.ID),
		"-listen", n.Addr,
		"-debug", n.Debug,
		"-collector",
	}
}

func joinArgs(args []string) string {
	out := ""
	for i, a := range args {
		if i > 0 {
			out += " "
		}
		out += a
	}
	return out
}

// Runner supervises a spawned cluster. Kill and Restart are the chaos
// backend's crash/restart primitives; all methods are safe for
// concurrent use.
type Runner struct {
	Manifest Manifest
	bin      string

	mu    sync.Mutex
	procs []*exec.Cmd
	logs  []*os.File
}

// Start spawns one anonnode process (the binary at bin) per manifest
// node, with stdout/stderr teed to node<i>.log in the cluster dir.
func (m Manifest) Start(bin string) (*Runner, error) {
	r := &Runner{Manifest: m, bin: bin}
	for _, n := range m.Nodes {
		logf, err := os.Create(filepath.Join(m.Dir, fmt.Sprintf("node%d.log", n.ID)))
		if err != nil {
			r.Stop()
			return nil, err
		}
		cmd := exec.Command(bin, nodeArgs(m, n)...)
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			logf.Close()
			r.Stop()
			return nil, fmt.Errorf("cluster: starting node %d: %w", n.ID, err)
		}
		r.procs = append(r.procs, cmd)
		r.logs = append(r.logs, logf)
	}
	return r, nil
}

// indexOf maps a roster id to its manifest slot, or -1.
func (r *Runner) indexOf(id int) int {
	for i, n := range r.Manifest.Nodes {
		if n.ID == id {
			return i
		}
	}
	return -1
}

// Kill delivers an immediate, uncatchable kill to node id's process —
// the chaos schedule's crash primitive. The log file stays open so
// Restart appends to the same history.
func (r *Runner) Kill(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.indexOf(id)
	if i < 0 || i >= len(r.procs) {
		return fmt.Errorf("cluster: unknown node %d", id)
	}
	p := r.procs[i]
	if p == nil || p.Process == nil {
		return fmt.Errorf("cluster: node %d not running", id)
	}
	if err := p.Process.Kill(); err != nil {
		return fmt.Errorf("cluster: killing node %d: %w", id, err)
	}
	p.Wait()
	r.procs[i] = nil
	return nil
}

// Restart re-spawns a previously killed node with its original
// arguments, appending to its log file.
func (r *Runner) Restart(id int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := r.indexOf(id)
	if i < 0 || i >= len(r.procs) {
		return fmt.Errorf("cluster: unknown node %d", id)
	}
	if r.procs[i] != nil {
		return fmt.Errorf("cluster: node %d already running", id)
	}
	n := r.Manifest.Nodes[i]
	cmd := exec.Command(r.bin, nodeArgs(r.Manifest, n)...)
	cmd.Stdout = r.logs[i]
	cmd.Stderr = r.logs[i]
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: restarting node %d: %w", id, err)
	}
	r.procs[i] = cmd
	return nil
}

// Stop interrupts every process, waits up to a grace period, then
// kills stragglers. Safe to call more than once.
func (r *Runner) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.procs {
		if p != nil && p.Process != nil {
			p.Process.Signal(os.Interrupt)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for _, p := range r.procs {
		if p == nil || p.Process == nil {
			continue
		}
		done := make(chan struct{})
		go func(p *exec.Cmd) {
			p.Wait()
			close(done)
		}(p)
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			p.Process.Kill()
			<-done
		}
	}
	r.procs = nil
	for _, f := range r.logs {
		f.Close()
	}
	r.logs = nil
}

// WaitReady polls every node's /readyz until all answer 200 or the
// timeout elapses.
func (r *Runner) WaitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		notReady := ""
		for _, n := range r.Manifest.Nodes {
			if err := probeReady(n.Debug); err != nil {
				notReady = fmt.Sprintf("node %d: %v", n.ID, err)
				break
			}
		}
		if notReady == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: not ready after %v: %s", timeout, notReady)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
