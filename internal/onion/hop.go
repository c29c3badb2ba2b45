package onion

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"

	"resilientmix/internal/netsim"
	"resilientmix/internal/onioncrypt"
)

// This file is the hop layer of the paper with no transport and no
// clock in it: the relay state table (§4.1, §4.3, §4.4 and the combined
// pass of §4.2), the responder's open, and the initiator's path keys.
// Every input is (now, from, sid, bytes); every output is a Send value
// the caller puts on its own wire. The simulator (relay.go,
// initiator.go, responder.go) and the TCP node (internal/livenet) are
// the two drivers; neither holds protocol state of its own.
//
// Payload bytes are handled in place, and a buffer has one owner at a
// time, in both directions. Consumed in: a body given to Table.Data,
// Table.ConstructData, Table.Reverse, Streams.Open or
// PathKeys.OpenReverse is the hop layer's until the call returns, and a
// body that did not open is left in no particular state. Same storage
// out: forward, a layer is opened into its own bytes
// (Cipher.OpenInPlace) and what comes back — Send.Body, the plaintext
// — is a sub-slice of what went in; backward, a layer is sealed around
// the body where it lies (Cipher.SealInPlace) in the buffer the driver
// says it lies in, and Send.Body is a slice of that buffer one layer
// longer. A reverse body without a layer's room around it is moved, by
// reverseLayer and nowhere else, into a buffer with room for the hops
// to come; Send.Room names the buffer either way. The driver hands over
// buffers nothing else reads or writes, and may put its own framing in
// the bytes in front of a returned body. Nothing here keeps a reference
// to a body after returning, so once the driver has put a step's sends
// on its wire the buffer is dead — unless the driver itself handed it
// to an application (a responder's plaintext, an initiator's reply).
//
// A key is set up once, by the state it belongs to (onioncrypt.Suite
// states the rule). Whatever here holds a key for longer than one call
// holds the handle made from it, not its bytes: a relay's pathState
// keys R_i when Table.construct makes the state, PathKeys its hop and
// responder keys at launch, a responder's stream record the key its
// sealed key unsealed to, and Table and Streams parse the node's
// private key when they are made. No frame and no construction pays
// for a key again; a key the suite refuses is refused where it
// arrives, before any state exists. A handle lives exactly as long as
// its owner — Sweep and Wipe drop it with the state, a ReplyHandle
// carries its stream's for the one reply — and is safe for the
// concurrent frames of one stream. Under ECIES that puts ≈ 1.3 KB of
// AES-GCM schedule in every relay state and stream record: the bytes
// each frame used to allocate.

// Kind names a hop-layer message. The values are the live wire's frame
// kinds.
type Kind uint8

// Hop-layer message kinds.
const (
	KindConstruct Kind = 1 + iota
	KindAck
	KindData
	KindDeliver
	KindReverse
	// KindConstructData is construction and first payload in one pass
	// (§4.2).
	KindConstructData
)

// Send is one output of the hop layer: a message of this kind, on this
// stream, for the driver to transmit to To.
type Send struct {
	To    netsim.NodeID
	Kind  Kind
	SID   StreamID
	Onion []byte // construction onion (KindConstruct, KindConstructData)
	Body  []byte // payload layer, responder blob or reverse body
	// Room is the buffer a reverse body lies in (KindReverse; nil on
	// every other kind): the driver carries it to the next hop beside
	// Body, whose layer goes into the room around it.
	Room []byte
}

// Drop says why an input went no further.
type Drop uint8

// Drop verdicts.
const (
	DropNone  Drop = iota
	DropNoSID      // unknown or expired stream
	DropBad        // failed to decrypt or parse
)

// Step is what one input to the relay table produced: at most two
// sends, in transmission order.
type Step struct {
	Out  [2]Send
	N    int
	Drop Drop
}

func one(a Send) Step { return Step{Out: [2]Send{a}, N: 1} }

// Env is what a driver injects: the cipher suite, the randomness behind
// seals and keys, the stream-id source, and the lock that guards table
// maps. A single-threaded driver leaves Lock nil. The lock is never
// held across a Suite call.
type Env struct {
	Suite  onioncrypt.Suite
	Rand   io.Reader
	NewSID func() StreamID
	Lock   sync.Locker
	// spares is where the tables made with this Env (Lock nil only)
	// take their path states from and give them back to; nil gives each
	// table its own. The simulator's nodes share their world's (simEnv).
	spares *spares
}

type noLock struct{}

func (noLock) Lock()   {}
func (noLock) Unlock() {}

// locked returns e with a usable Lock.
func (e Env) locked() Env {
	if e.Lock == nil {
		e.Lock = noLock{}
	}
	return e
}

// RelayStats counts a relay's activity.
type RelayStats struct {
	Constructed  uint64 // path states installed
	DataRelayed  uint64 // payload onion layers forwarded
	Delivered    uint64 // responder deliveries (terminal hops)
	ReverseHops  uint64 // reverse messages wrapped and forwarded
	AcksRelayed  uint64 // construction acks forwarded backward
	DroppedNoSID uint64 // messages with unknown or expired stream IDs
	DroppedBad   uint64 // messages that failed to decrypt or parse
	Expired      uint64 // path states reclaimed by the TTL sweeper
	Wiped        uint64 // path states lost to a node failure
}

// pathState is one relay's cached tuple for a stream:
// [P_{i-1}, sid_{i-1}, P_{i+1}, sid_i, R_i] plus a TTL (§4.3).
type pathState struct {
	prev     netsim.NodeID
	prevSID  StreamID
	next     netsim.NodeID
	nextSID  StreamID
	key      onioncrypt.Cipher // R_i, keyed when the state was made
	terminal bool              // next hop is the responder
	expires  int64
	// raw is R_i's bytes, copied out of the construction onion: key may
	// refer to them (Null's does), and the onion's buffer goes on to
	// the next hop.
	raw [onioncrypt.SymKeySize]byte
}

// Table is one node's relay state: it installs path state from
// construction onions and maps payload, reverse and ack traffic along
// the cached streams. Times are ticks of the driver's clock.
type Table struct {
	env  Env
	mu   sync.Locker // env.Lock
	priv onioncrypt.Opener
	ttl  int64

	forward map[StreamID]*pathState // keyed by upstream (inbound) stream ID
	reverse map[StreamID]*pathState // keyed by downstream (outbound) stream ID
	stats   RelayStats
	// free holds states Sweep and Wipe took out of the maps, for the
	// next constructions — in a table whose driver is one goroutine
	// (Env.Lock nil, so free needs no lock) only: where frames run
	// concurrently, one may still be using a state it looked up before
	// the lock was let go, so free is nil and the collector reclaims
	// them.
	free *spares
}

// spares holds the records given back for reuse by the nodes that share
// it (Env.spares), all on one goroutine: relay path states, which Sweep
// and Wipe give back, and the simulator's initiator path records, which
// Initiator.Forget does. A state wiped at one relay can serve a
// construction at another, and a path record forgotten by one initiator
// a launch at another.
type spares struct {
	states []*pathState
	paths  []*Path
}

// NewTable creates an empty relay table whose idle states live ttl
// ticks. The node's private key is parsed here, once; a table made with
// a key its suite refuses turns every construction away.
func NewTable(env Env, priv onioncrypt.PrivateKey, ttl int64) *Table {
	var free *spares
	if env.Lock == nil {
		if free = env.spares; free == nil {
			free = new(spares)
		}
	}
	env = env.locked()
	return &Table{
		env:     env,
		mu:      env.Lock,
		priv:    newOpener(env.Suite, priv),
		ttl:     ttl,
		forward: make(map[StreamID]*pathState),
		reverse: make(map[StreamID]*pathState),
		free:    free,
	}
}

// newState returns a state for a construction, a recycled one when the
// table has one. Its fields are the construction's to set, every one.
func (t *Table) newState() *pathState {
	if t.free != nil {
		if n := len(t.free.states); n > 0 {
			st := t.free.states[n-1]
			t.free.states = t.free.states[:n-1]
			return st
		}
	}
	return new(pathState)
}

// drop gives up a state no map holds any more.
func (t *Table) drop(st *pathState) {
	if t.free != nil {
		t.free.states = append(t.free.states, st)
	}
}

// Stats returns a snapshot of the counters.
func (t *Table) Stats() RelayStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// States returns the number of live forward and reverse states.
func (t *Table) States() (forward, reverse int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.forward), len(t.reverse)
}

// Wipe loses all state, as a failing node does, and allocates nothing:
// the maps keep their room, and the states go to the free list.
func (t *Table) Wipe() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stats.Wiped += uint64(len(t.forward))
	for _, st := range t.forward {
		t.drop(st)
	}
	clear(t.forward)
	clear(t.reverse)
}

// Sweep reclaims states whose TTL ran out (§4.3). A state leaves both
// maps in the same sweep — its entries share its expiry — and goes to
// the free list from the forward map, where each state has one entry.
func (t *Table) Sweep(now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for sid, st := range t.forward {
		if st.expires <= now {
			delete(t.forward, sid)
			t.stats.Expired++
			t.drop(st)
		}
	}
	for sid, st := range t.reverse {
		if st.expires <= now {
			delete(t.reverse, sid)
		}
	}
}

// lookup returns a live state from the map, dropping expired entries.
// Callers hold t.mu.
func (t *Table) lookup(m map[StreamID]*pathState, sid StreamID, now int64) *pathState {
	st, ok := m[sid]
	if ok && st.expires <= now {
		delete(m, sid)
		ok = false
	}
	if !ok {
		t.stats.DroppedNoSID++
		return nil
	}
	return st
}

func (t *Table) bad() Step {
	t.mu.Lock()
	t.stats.DroppedBad++
	t.mu.Unlock()
	return Step{Drop: DropBad}
}

// Construct installs path state from one construction onion layer and
// either forwards the inner onion or, at the terminal relay,
// acknowledges back toward the initiator.
func (t *Table) Construct(now int64, from netsim.NodeID, sid StreamID, onion []byte) Step {
	return t.construct(now, from, sid, onion, nil, false)
}

// ConstructData installs path state AND strips one layer of the
// piggybacked payload in one pass (§4.2). The terminal relay delivers
// the responder blob and acks like an ordinary construction. body is
// consumed; the forwarded payload is a sub-slice of it.
func (t *Table) ConstructData(now int64, from netsim.NodeID, sid StreamID, onion, body []byte) Step {
	return t.construct(now, from, sid, onion, body, true)
}

func (t *Table) construct(now int64, from netsim.NodeID, sid StreamID, onion, body []byte, withData bool) Step {
	layer, err := parseConstructLayer(t.priv, onion)
	// A key of the wrong size is refused here: a state that could never
	// open a frame would sit in the table, acknowledged, until its TTL.
	if err != nil || len(layer.Key) != len(pathState{}.raw) {
		return t.bad()
	}
	st := t.newState()
	copy(st.raw[:], layer.Key)
	st.key, err = t.env.Suite.NewCipher(st.raw[:])
	var pt []byte
	if err == nil && withData {
		pt, err = st.key.OpenInPlace(body)
	}
	if err != nil {
		t.drop(st)
		return t.bad()
	}
	st.prev, st.prevSID = from, sid
	st.next, st.nextSID = layer.Next, t.env.NewSID()
	st.terminal, st.expires = layer.Terminal, now+t.ttl
	t.mu.Lock()
	t.forward[sid] = st
	t.reverse[st.nextSID] = st
	t.stats.Constructed++
	if withData && !layer.Terminal {
		t.stats.DataRelayed++
	}
	t.mu.Unlock()

	if !layer.Terminal {
		kind := KindConstruct
		if withData {
			kind = KindConstructData
		}
		return one(Send{To: layer.Next, Kind: kind, SID: st.nextSID, Onion: layer.Inner, Body: pt})
	}
	ack := Send{To: from, Kind: KindAck, SID: sid}
	if !withData {
		return one(ack)
	}
	step := t.deliver(st, pt)
	if step.N == 1 { // delivered: the ack follows it
		step.Out[1], step.N = ack, 2
	}
	return step
}

// deliver is the terminal relay's step: the decrypted layer names the
// destination — normally the cached responder; a different one rebinds
// the stream under a fresh downstream id (path reuse, §4.4) — and
// carries the blob for it.
func (t *Table) deliver(st *pathState, pt []byte) Step {
	dest, blob, err := ParseTerminalPayload(pt)
	if err != nil {
		return t.bad()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if dest != st.next {
		delete(t.reverse, st.nextSID)
		st.next = dest
		st.nextSID = t.env.NewSID()
		t.reverse[st.nextSID] = st
	}
	t.stats.Delivered++
	return one(Send{To: dest, Kind: KindDeliver, SID: st.nextSID, Body: blob})
}

// Ack maps a construction ack one hop back toward the initiator.
func (t *Table) Ack(now int64, sid StreamID) Step {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.lookup(t.reverse, sid, now)
	if st == nil {
		return Step{Drop: DropNoSID}
	}
	t.stats.AcksRelayed++
	return one(Send{To: st.prev, Kind: KindAck, SID: st.prevSID})
}

// Data strips one payload layer and forwards it; at the terminal relay
// the blob goes to the destination the layer names. body is consumed;
// the Send's Body is a sub-slice of it.
func (t *Table) Data(now int64, sid StreamID, body []byte) Step {
	t.mu.Lock()
	st := t.lookup(t.forward, sid, now)
	t.mu.Unlock()
	if st == nil {
		return Step{Drop: DropNoSID}
	}
	pt, err := st.key.OpenInPlace(body)
	if err != nil {
		return t.bad()
	}
	t.mu.Lock()
	st.expires = now + t.ttl // payload refreshes the TTL (§4.3)
	if !st.terminal {
		t.stats.DataRelayed++
	}
	t.mu.Unlock()
	if !st.terminal {
		// next and nextSID of a non-terminal state never change.
		return one(Send{To: st.next, Kind: KindData, SID: st.nextSID, Body: pt})
	}
	return t.deliver(st, pt)
}

// Reverse wraps a response in this relay's symmetric layer and maps it
// one hop toward the initiator (§4.2). body is consumed, and so is room,
// the buffer the driver says body lies in (nil when it has none to
// offer): the layer is sealed around body where it lies, or, when room
// does not hold body with a layer's room around it, where reverseLayer
// moved it. The Send's Body and Room are the result.
func (t *Table) Reverse(now int64, sid StreamID, body, room []byte) Step {
	t.mu.Lock()
	st := t.lookup(t.reverse, sid, now)
	t.mu.Unlock()
	if st == nil {
		return Step{Drop: DropNoSID}
	}
	room, layer := reverseLayer(t.env.Suite, room, OffsetIn(room, body), len(body), body)
	if err := st.key.SealInPlace(t.env.Rand, layer); err != nil {
		return t.bad()
	}
	t.mu.Lock()
	st.expires = now + t.ttl
	t.stats.ReverseHops++
	t.mu.Unlock()
	return one(Send{To: st.prev, Kind: KindReverse, SID: st.prevSID, Body: layer, Room: room})
}

// reverseSlack is how many reverse layers fit around a body in a buffer
// the hop layer makes for it. It is a constant on purpose: the
// responder, who makes the first buffer of every reply, does not and
// must not know how long the path back is, so a buffer's size says
// nothing about it. Four covers the responder's own layer and the
// paper's L = 3 relays; a longer path moves the body once every four
// hops.
const reverseSlack = 4

// OffsetIn returns i such that b is buf[i:i+len(b)], or -1 when b is
// empty or is not a sub-slice of buf reaching as far back as buf does.
// A sub-slice keeps its parent's end of capacity, so the capacities
// give the only candidate and the element addresses confirm it.
func OffsetIn(buf, b []byte) int {
	i := cap(buf) - cap(b)
	if len(b) == 0 || i < 0 || i+len(b) > len(buf) || &buf[i] != &b[0] {
		return -1
	}
	return i
}

// reverseLayer finds the bytes a symmetric layer around the n bytes at
// room[at:] will fill — Suite.SymPrefix in front of them, the rest of
// SymOverhead behind — and returns them with the buffer they lie in.
// That is room, whole, when it has the layer's overhead free on both
// sides of those n bytes (behind them, capacity counts). Otherwise —
// at < 0 says the bytes are not in room at all — it is a fresh buffer
// with room for reverseSlack layers, into which body, the n bytes if
// they exist yet, has been copied: the one place on the reverse path
// where a body moves or a buffer is made.
func reverseLayer(suite onioncrypt.Suite, room []byte, at, n int, body []byte) (buf, layer []byte) {
	pre := suite.SymPrefix()
	post := suite.SymOverhead() - pre
	if at < pre || at+n+post > cap(room) {
		room = make([]byte, reverseSlack*pre+n+reverseSlack*post)
		at = reverseSlack * pre
		copy(room[at:], body)
	}
	room = room[:cap(room)]
	return room, room[at-pre : at+n+post]
}

// Streams is the responder endpoint D: it unseals the per-path
// symmetric key with its private key, decrypts application payloads,
// seals replies for the delivering path (§4.2), and remembers which
// inbound streams are live — and the key each one unsealed to — with
// the relay table's TTL.
type Streams struct {
	env  Env
	priv onioncrypt.Opener
	ttl  int64
	live map[StreamID]stream // keyed by the terminal relay's downstream sid
}

// stream is the record of one live inbound stream: its expiry, and the
// sealed responder key <respKey>_{PubKey(D)} its last delivery carried
// together with what that opened to. The initiator seals the key once
// per path and ships the same bytes beside every payload (§4.2), so the
// pair is a memo of opening sealed with the node's private key and
// keying what it opened to: a delivery on the stream carrying exactly
// these bytes skips both. sealed is a private copy and key was made
// from one; both are shared read-only once recorded.
type stream struct {
	expires int64
	sealed  []byte
	key     onioncrypt.Cipher
}

// NewStreams creates the responder endpoint of a node. The node's
// private key is parsed here, once; an endpoint made with a key its
// suite refuses opens nothing.
func NewStreams(env Env, priv onioncrypt.PrivateKey, ttl int64) *Streams {
	env = env.locked()
	return &Streams{env: env, priv: newOpener(env.Suite, priv), ttl: ttl, live: make(map[StreamID]stream)}
}

// refused is the Opener of a node whose private key its suite refused:
// it opens nothing, as Suite.Open with that key does.
type refused struct{ err error }

func (r refused) Open([]byte) ([]byte, error) { return nil, r.err }

func newOpener(suite onioncrypt.Suite, priv onioncrypt.PrivateKey) onioncrypt.Opener {
	o, err := suite.NewOpener(priv)
	if err != nil {
		return refused{err}
	}
	return o
}

// Open processes a delivery from a terminal relay: the stream's
// symmetric key, set up to seal replies with, and the application
// plaintext, or false for a blob that does not open. The asymmetric
// open — and the keying of what it opens to — runs on a stream's first
// delivery and whenever the sealed key differs from the stream's
// unexpired record in any byte (a §4.4 rebind, tampering, a reused
// sid); every payload is authenticated by its symmetric open
// regardless. A delivery that does not open, or whose key the suite
// refuses, leaves the record as it was. blob is consumed; plain is a
// sub-slice of it.
func (s *Streams) Open(now int64, sid StreamID, blob []byte) (key onioncrypt.Cipher, plain []byte, ok bool) {
	sealedKey, ct, err := ParseResponderBlob(blob)
	if err != nil {
		return nil, nil, false
	}
	s.env.Lock.Lock()
	rec := s.live[sid]
	s.env.Lock.Unlock()
	if rec.expires <= now || !bytes.Equal(rec.sealed, sealedKey) {
		raw, err := s.priv.Open(sealedKey)
		if err != nil {
			return nil, nil, false
		}
		// Private copies, in one buffer: the blob belongs to the
		// caller's frame, and Null's Open returns a slice of it.
		own := append(append(make([]byte, 0, len(raw)+len(sealedKey)), raw...), sealedKey...)
		if rec.key, err = s.env.Suite.NewCipher(own[:len(raw):len(raw)]); err != nil {
			return nil, nil, false
		}
		rec.sealed = own[len(raw):]
	}
	if plain, err = rec.key.OpenInPlace(ct); err != nil {
		return nil, nil, false
	}
	rec.expires = now + s.ttl
	s.env.Lock.Lock()
	s.live[sid] = rec
	s.env.Lock.Unlock()
	return rec.key, plain, true
}

// Reply seals plain under a delivering stream's key for the way back
// up its path through the terminal relay. plain is only read.
func (s *Streams) Reply(relay netsim.NodeID, sid StreamID, key onioncrypt.Cipher, plain []byte) (Send, error) {
	return s.AppendReply(nil, relay, sid, key, len(plain), func(b []byte) []byte { return append(b, plain...) })
}

// AppendReply is Reply for a message its caller encodes where it is
// sealed, in the caller's buffer if it offers one: plain appends the
// plainLen bytes to the slice it is handed and returns it. When dst has
// plainLen + SymOverhead bytes to spare the reply is built right behind
// len(dst) — a driver leaves room for its framing in front — and
// otherwise in a buffer of the hop layer's own with room for the
// relays' layers (reverseLayer; dst is left alone). The Send's Body and
// Room say where it is.
func (s *Streams) AppendReply(dst []byte, relay netsim.NodeID, sid StreamID, key onioncrypt.Cipher, plainLen int, plain func([]byte) []byte) (Send, error) {
	pre := s.env.Suite.SymPrefix()
	room, layer := reverseLayer(s.env.Suite, dst, len(dst)+pre, plainLen, nil)
	if got := plain(layer[:pre]); len(got) != pre+plainLen {
		return Send{}, fmt.Errorf("onion: reply of %d bytes announced as %d", len(got)-pre, plainLen)
	}
	if err := key.SealInPlace(s.env.Rand, layer); err != nil {
		return Send{}, fmt.Errorf("onion: sealing reply: %w", err)
	}
	return Send{To: relay, Kind: KindReverse, SID: sid, Body: layer, Room: room}, nil
}

// Sweep forgets streams idle past the TTL.
func (s *Streams) Sweep(now int64) {
	s.env.Lock.Lock()
	defer s.env.Lock.Unlock()
	for sid, rec := range s.live {
		if rec.expires <= now {
			delete(s.live, sid)
		}
	}
}

// Wipe forgets every stream, as a failing node does, and allocates
// nothing: the map keeps its room.
func (s *Streams) Wipe() {
	s.env.Lock.Lock()
	defer s.env.Lock.Unlock()
	clear(s.live)
}

// Len returns the number of live inbound streams.
func (s *Streams) Len() int {
	s.env.Lock.Lock()
	defer s.env.Lock.Unlock()
	return len(s.live)
}

// target holds the per-responder keys of a path (a reused path can
// multiplex several responders, §4.4).
type target struct {
	dest   netsim.NodeID
	key    onioncrypt.Cipher
	sealed []byte
}

// inlineHops is how many hops a PathKeys keys in its own storage: the
// paper's L = 3. A longer path allocates its lists.
const inlineHops = 3

// PathKeys is the initiator's half of one path: the hop keys R_1..R_L
// and the responder keys, set up for use (their bytes are needed once,
// by the construction onion and the sealed responder key), and the
// stream id and first relay its messages leave on. Sending to a
// responder the path already has keys for only reads, so an established
// path may be used concurrently; introducing a new responder (§4.4)
// must not race other calls on the same path.
//
// A path of up to inlineHops relays with one responder is keyed in the
// PathKeys' own storage: the hop handles, the target and the key bytes
// behind them — a handle may refer to its key's bytes (Null's does), so
// the bytes stay with it — and the sealed responder key
// (sealedKeyRoom). A PathKeys that is copied goes on working, from the
// original's storage.
type PathKeys struct {
	suite   onioncrypt.Suite
	rand    io.Reader
	sid     StreamID
	first   netsim.NodeID
	used    int32 // bytes of mem handed out
	hops    []onioncrypt.Cipher
	targets []target

	hopStore    [inlineHops]onioncrypt.Cipher
	targetStore [1]target
	mem         [inlineHops*onioncrypt.SymKeySize + sealedKeyRoom]byte // handed out by bytes
}

// sealedKeyRoom is what a PathKeys' storage keeps for its responder: the
// key, and the key sealed (SymKeySize + SealOverhead, 48 under both
// suites).
const sealedKeyRoom = onioncrypt.SymKeySize + onioncrypt.SymKeySize + 48

// bytes hands out the next n bytes of k's storage, or a fresh buffer
// once the storage is spent.
func (k *PathKeys) bytes(n int) []byte {
	at := int(k.used)
	if at+n > len(k.mem) {
		return make([]byte, n)
	}
	k.used += int32(n)
	return k.mem[at : at+n : at+n]
}

// LaunchSize is the length of the message Launch appends: the
// construction onion over pathLen relays and, withData, the payload
// onion carrying dataLen bytes behind it.
func LaunchSize(suite onioncrypt.Suite, pathLen, dataLen int, withData bool) int {
	n := constructOnionSize(suite, pathLen)
	if withData {
		n += PayloadOnionSize(suite, pathLen, dataLen)
	}
	return n
}

// Launch keys k as a fresh path from self through the relays to the
// responder and appends to dst the message that launches it: the
// construction onion (§4.1), carrying data's payload onion behind it
// in the same pass when withData is set (§4.2). The Send's Onion and
// Body are slices of dst, which grows at most once, and not at all with
// LaunchSize bytes to spare. The draws from env.Rand are, in order: the
// hop keys, the stream id, the responder key and its seal, the
// construction onion's seals, the payload onion's.
func (k *PathKeys) Launch(env Env, dir KeyLookup, self netsim.NodeID, relays []netsim.NodeID, responder netsim.NodeID, dst, data []byte, withData bool) (Send, error) {
	if len(relays) == 0 {
		return Send{}, fmt.Errorf("onion: path needs at least one relay")
	}
	for _, rid := range relays {
		if rid == self || rid == responder {
			return Send{}, fmt.Errorf("onion: relay %d collides with an endpoint", rid)
		}
	}
	*k = PathKeys{suite: env.Suite, rand: env.Rand, first: relays[0]}
	k.hops, k.targets = k.hopStore[:0], k.targetStore[:0]
	raw := k.bytes(len(relays) * onioncrypt.SymKeySize)
	var few [inlineHops][]byte // the hop keys' bytes, for the onion
	keys := few[:0]
	for i := range relays {
		key := raw[i*onioncrypt.SymKeySize : (i+1)*onioncrypt.SymKeySize]
		c, err := newSymKey(env.Suite, env.Rand, key)
		if err != nil {
			return Send{}, fmt.Errorf("onion: keying hop %d: %w", i, err)
		}
		k.hops = append(k.hops, c)
		keys = append(keys, key)
	}
	k.sid = env.NewSID()
	if _, err := k.target(dir, responder); err != nil {
		return Send{}, err
	}
	dst = slices.Grow(dst, LaunchSize(env.Suite, len(relays), len(data), withData))
	start := len(dst)
	dst, err := appendConstructOnion(dst, env.Suite, env.Rand, dir, relays, responder, keys)
	if err != nil {
		return Send{}, err
	}
	launch := Send{To: k.first, Kind: KindConstruct, SID: k.sid, Onion: dst[start:]}
	if withData {
		d, err := k.AppendData(dst, dir, responder, len(data), func(b []byte) []byte { return append(b, data...) })
		if err != nil {
			return Send{}, err
		}
		launch.Kind, launch.Body = KindConstructData, d.Body
	}
	return launch, nil
}

// newSymKey draws a symmetric key into key, as Suite.NewSymKey draws
// one, and sets it up.
func newSymKey(suite onioncrypt.Suite, r io.Reader, key []byte) (onioncrypt.Cipher, error) {
	if _, err := io.ReadFull(r, key); err != nil {
		return nil, fmt.Errorf("drawing a key: %w", err)
	}
	return suite.NewCipher(key)
}

// Targets returns how many responders the path has keys for.
func (k *PathKeys) Targets() int { return len(k.targets) }

// target returns the path's keys for a responder, creating and sealing
// them on first use.
func (k *PathKeys) target(dir KeyLookup, responder netsim.NodeID) (target, error) {
	for _, t := range k.targets {
		if t.dest == responder {
			return t, nil
		}
	}
	raw := k.bytes(onioncrypt.SymKeySize)
	c, err := newSymKey(k.suite, k.rand, raw)
	if err != nil {
		return target{}, fmt.Errorf("onion: keying responder key: %w", err)
	}
	sealed := k.bytes(k.suite.SealOverhead() + len(raw))
	copy(sealed[k.suite.SealPrefix():], raw)
	if err := k.suite.SealInPlace(k.rand, dir.Public(responder), sealed); err != nil {
		return target{}, fmt.Errorf("onion: sealing responder key: %w", err)
	}
	k.targets = append(k.targets, target{dest: responder, key: c, sealed: sealed})
	return k.targets[len(k.targets)-1], nil
}

// Data builds the payload onion carrying plain over the path to a
// responder — its default one or, reusing the relays' state, any other
// (§4.4).
func (k *PathKeys) Data(dir KeyLookup, responder netsim.NodeID, plain []byte) (Send, error) {
	return k.AppendData(nil, dir, responder, len(plain), func(b []byte) []byte { return append(b, plain...) })
}

// DataSize is the length of the payload onion that carries plainLen
// bytes over the path.
func (k *PathKeys) DataSize(plainLen int) int {
	return PayloadOnionSize(k.suite, len(k.hops), plainLen)
}

// AppendData is Data into the caller's buffer: the onion is appended to
// dst — in place when dst has DataSize(plainLen) bytes to spare, so a
// driver can leave room for its framing in front — and is the Send's
// Body. plain appends the plainLen bytes of the application message to
// the slice it is handed and returns it; they are written once, where
// they are sealed.
func (k *PathKeys) AppendData(dst []byte, dir KeyLookup, responder netsim.NodeID, plainLen int, plain func([]byte) []byte) (Send, error) {
	t, err := k.target(dir, responder)
	if err != nil {
		return Send{}, err
	}
	body, err := appendKeyedOnion(dst, k.suite, k.rand, k.hops, responder, t.key, t.sealed, plainLen, plain)
	if err != nil {
		return Send{}, err
	}
	return Send{To: k.first, Kind: KindData, SID: k.sid, Body: body[len(dst):]}, nil
}

// OpenReverse peels every relay layer and the responder layer off a
// reverse-path body, identifying the sending responder by which target
// key decrypts. body is consumed by the relay layers, which open in
// place; the trial over the target keys must leave what it tries
// intact for the next key, so plain is a buffer of its own.
func (k *PathKeys) OpenReverse(body []byte) (from netsim.NodeID, plain []byte, ok bool) {
	for _, key := range k.hops {
		pt, err := key.OpenInPlace(body)
		if err != nil {
			return netsim.Invalid, nil, false // corrupted or replayed
		}
		body = pt
	}
	for _, t := range k.targets {
		if pt, err := t.key.Open(body); err == nil {
			return t.dest, pt, true
		}
	}
	return netsim.Invalid, nil, false
}
