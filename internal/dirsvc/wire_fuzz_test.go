package dirsvc

import (
	"bytes"
	"reflect"
	"testing"

	"dirsvc/internal/codec/codectest"
)

// FuzzDecodeRequest: arbitrary bytes never panic DecodeRequest, which
// allocates in proportion to the input; a request it accepts encodes to
// one that decodes the same; decoding b into scratch that last held a is
// decoding b fresh, with nothing of a left over; no decode changes its
// input; and the fresh decode, which owns what it holds, encodes the same
// after its input is overwritten. The seed corpus, in
// testdata/fuzz/FuzzDecodeRequest, holds the encodings of
// TestRequestEncodeDecodeRoundTrip's requests, each after another.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		owned, heldA := bytes.Clone(b), bytes.Clone(a)
		var fresh *Request
		var err error
		if grew := codectest.Allocated(func() { fresh, err = DecodeRequest(owned) }); grew > codectest.AllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		var scratch Request
		_ = DecodeRequestInto(&scratch, a)
		if serr := DecodeRequestInto(&scratch, b); (serr == nil) != (err == nil) {
			t.Fatalf("fresh decode: %v; into scratch: %v", err, serr)
		}
		if !bytes.Equal(owned, b) || !bytes.Equal(heldA, a) {
			t.Fatal("a decode changed its input")
		}
		if err != nil {
			return
		}
		want := fresh.Encode()
		for i := range owned {
			owned[i] = 0xFF
		}
		if got := fresh.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("the fresh decode of %x changed with its input: %x", b, got)
		}
		if got := scratch.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("into scratch that held %x: %+v, fresh: %+v", a, scratch, *fresh)
		}
		again, err := DecodeRequest(fresh.Encode())
		if err != nil {
			t.Fatalf("decoded %+v, but not its encoding: %v", *fresh, err)
		}
		if !reflect.DeepEqual(again, fresh) {
			t.Fatalf("decoded %+v, then %+v from its encoding", *fresh, *again)
		}
	})
}

// FuzzDecodeReply is FuzzDecodeRequest for replies. The seed corpus, in
// testdata/fuzz/FuzzDecodeReply, holds TestReplyEncodeDecodeRoundTrip's
// reply, the lookup and listing answers and a bare status, each after
// another.
func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		owned, heldA := bytes.Clone(b), bytes.Clone(a)
		var fresh *Reply
		var err error
		if grew := codectest.Allocated(func() { fresh, err = DecodeReply(owned) }); grew > codectest.AllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		var scratch Reply
		_ = DecodeReplyInto(&scratch, a)
		if serr := DecodeReplyInto(&scratch, b); (serr == nil) != (err == nil) {
			t.Fatalf("fresh decode: %v; into scratch: %v", err, serr)
		}
		if !bytes.Equal(owned, b) || !bytes.Equal(heldA, a) {
			t.Fatal("a decode changed its input")
		}
		if err != nil {
			return
		}
		want := fresh.Encode()
		for i := range owned {
			owned[i] = 0xFF
		}
		if got := fresh.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("the fresh decode of %x changed with its input: %x", b, got)
		}
		if got := scratch.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("into scratch that held %x: %+v, fresh: %+v", a, scratch, *fresh)
		}
		again, err := DecodeReply(fresh.Encode())
		if err != nil {
			t.Fatalf("decoded %+v, but not its encoding: %v", *fresh, err)
		}
		if !reflect.DeepEqual(again, fresh) {
			t.Fatalf("decoded %+v, then %+v from its encoding", *fresh, *again)
		}
	})
}
