package core

import (
	"testing"
	"time"

	"dirsvc/internal/dirsvc"
	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

func newStack(t *testing.T, net *sim.Network) *flip.Stack {
	t.Helper()
	s := flip.NewStack(net.AddNode("test"))
	t.Cleanup(s.Close)
	return s
}

// newLoneServer boots a one-replica server over the storage engine that
// never checkpoints on its own.
func newLoneServer(t *testing.T, service string) *Server {
	t.Helper()
	model := sim.FastModel()
	admin, part := engineDisk(t, model)
	stack := newStack(t, sim.NewNetwork(model, 1))
	srv, err := NewServer(stack, Config{
		FrontConfig:       dirsvc.FrontConfig{Service: service, ServerID: 1, Replicas: 1, Admin: admin},
		Peers:             map[int]sim.NodeID{1: stack.Node().ID()},
		Engine:            part,
		HeartbeatInterval: 15 * time.Millisecond,
		IdleFlush:         time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}
