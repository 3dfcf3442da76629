package rpcdir

import (
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirsvc"
	"dirsvc/internal/sim"
)

func TestIntentionCodecRoundTrip(t *testing.T) {
	req := &dirsvc.Request{
		Op:    dirsvc.OpAppendRow,
		Dir:   capability.Mint(dirsvc.ServicePort("x"), 3, capability.NewSecret([]byte("s"))),
		Name:  "pending",
		Masks: []capability.Rights{capability.AllRights},
	}
	got, seq, ok := decodeIntention(encodeIntention(req, 42))
	if !ok {
		t.Fatal("decodeIntention failed")
	}
	if seq != 42 || got.Op != dirsvc.OpAppendRow || got.Name != "pending" {
		t.Fatalf("got seq=%d req=%+v", seq, got)
	}
}

func TestIntentionCodecRejectsEmptyAndGarbage(t *testing.T) {
	if _, _, ok := decodeIntention(nil); ok {
		t.Fatal("decoded nil")
	}
	if _, _, ok := decodeIntention(make([]byte, 12)); ok {
		t.Fatal("decoded zero block (must read as no intention)")
	}
	raw := encodeIntention(&dirsvc.Request{Op: dirsvc.OpDeleteRow, Name: "x"}, 7)
	if _, _, ok := decodeIntention(raw[:len(raw)-2]); ok {
		t.Fatal("decoded truncated intention")
	}
}

func TestConfigValidation(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	stack := newTestStack(t, net)
	if _, err := NewServer(stack, Config{FrontConfig: dirsvc.FrontConfig{Service: "x", ServerID: 3}}); err == nil {
		t.Fatal("accepted server id 3 in a two-server service")
	}
}
