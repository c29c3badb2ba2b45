package netsim

import (
	"fmt"
	"reflect"
)

// Mux dispatches a node's incoming messages to per-payload-type handlers
// so independent subsystems (gossip, onion relay, responder) can share
// one node. Register a Mux as the node's Handler.
//
// A node routes one to three payload types, so the routes are a slice
// scanned in registration order: one type comparison for the first
// route, where a map would hash the type on every message.
type Mux struct {
	routes []route
}

type route struct {
	t reflect.Type
	h Handler
}

// NewMux returns an empty Mux.
func NewMux() *Mux { return &Mux{} }

// Route registers h for messages whose payload has the same dynamic type
// as prototype. Registering a type twice panics: silently replacing a
// subsystem's handler is always a wiring bug.
func (m *Mux) Route(prototype any, h Handler) {
	t := reflect.TypeOf(prototype)
	if t == nil {
		panic("netsim: Route with nil prototype")
	}
	if h == nil {
		panic("netsim: Route with nil handler")
	}
	for _, r := range m.routes {
		if r.t == t {
			panic(fmt.Sprintf("netsim: duplicate route for %v", t))
		}
	}
	m.routes = append(m.routes, route{t, h})
}

// HandleMessage implements Handler, dispatching on the payload type.
// Messages with no registered route are dropped silently (the node does
// not understand them — the network equivalent of an unknown protocol).
func (m *Mux) HandleMessage(from NodeID, msg Message) {
	t := reflect.TypeOf(msg.Payload)
	for _, r := range m.routes {
		if r.t == t {
			r.h.HandleMessage(from, msg)
			return
		}
	}
}
