package dirsvc

import (
	"testing"

	"dirsvc/internal/capability"
)

// Wire shapes of the read path: a one-name lookup as a client sends it,
// and the reply a replica sends back for it.
func lookupWire() (req *Request, reply *Reply) {
	dir := capability.Mint(ServicePort("codec"), 7, capability.NewSecret([]byte("codec")))
	req = &Request{Op: OpLookupSet, Dir: dir, Set: []SetItem{{Name: "n0"}}}
	reply = &Reply{Status: StatusOK, Caps: []capability.Capability{dir}, Seq: 41, ObjSeq: 40}
	return req, reply
}

// BenchmarkDecodeRequest and BenchmarkDecodeReply decode as the hot
// paths do, into scratch reused from call to call.
func BenchmarkDecodeRequest(b *testing.B) {
	req, _ := lookupWire()
	raw := req.Encode()
	var scratch Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeRequestInto(&scratch, raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeReply(b *testing.B) {
	_, reply := lookupWire()
	raw := reply.Encode()
	var scratch Reply
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeReplyInto(&scratch, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplyAppend is the reply encode as a server's worker runs it,
// into the buffer it reuses from request to request.
func BenchmarkReplyAppend(b *testing.B) {
	_, reply := lookupWire()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = reply.AppendTo(buf[:0])
	}
}

// TestCodecAllocs guards the codec's allocations per lookup: decoding
// into reused scratch allocates nothing, the name pointing into the frame
// (1 while it copied the name, 3 and 5 while each decode allocated its
// message and lists, and a lookup's answer carried its rows); encoding
// into a reused buffer allocates nothing.
func TestCodecAllocs(t *testing.T) {
	req, reply := lookupWire()
	rawReq, rawReply := req.Encode(), reply.Encode()
	var buf []byte
	var reqScratch Request
	var replyScratch Reply
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"DecodeRequestInto", 0, func() { _ = DecodeRequestInto(&reqScratch, rawReq) }},
		{"DecodeReplyInto", 0, func() { _ = DecodeReplyInto(&replyScratch, rawReply) }},
		{"Reply.AppendTo", 0, func() { buf = reply.AppendTo(buf[:0]) }}, // into the worker's buffer
	} {
		if got := testing.AllocsPerRun(1000, c.fn); got > c.max {
			t.Errorf("%s: %.1f allocs, want ≤ %.0f", c.name, got, c.max)
		}
	}
}
