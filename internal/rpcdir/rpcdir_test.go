package rpcdir

import (
	"errors"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
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
	got, seq, err := decodeIntention(encodeIntention(req, 42))
	if err != nil || got == nil {
		t.Fatalf("decodeIntention: %v", err)
	}
	if seq != 42 || got.Op != dirsvc.OpAppendRow || got.Name != "pending" {
		t.Fatalf("got seq=%d req=%+v", seq, got)
	}
}

func TestIntentionCodecRejectsEmptyAndGarbage(t *testing.T) {
	for _, empty := range [][]byte{nil, make([]byte, 512)} {
		if req, _, err := decodeIntention(empty); req != nil || err != nil {
			t.Fatalf("%d zero bytes: %+v, %v (must read as no intention)", len(empty), req, err)
		}
	}
	raw := encodeIntention(&dirsvc.Request{Op: dirsvc.OpDeleteRow, Name: "x"}, 7)
	if _, _, err := decodeIntention(raw[:len(raw)-2]); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("truncated intention: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	stack := newTestStack(t, net)
	if _, err := NewServer(stack, Config{FrontConfig: dirsvc.FrontConfig{Service: "x", ServerID: 3}}); err == nil {
		t.Fatal("accepted server id 3 in a two-server service")
	}
}
