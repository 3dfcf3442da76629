package dirsvc

import (
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/dirdata"
)

// Wire shapes of the read path: a one-name lookup as a client sends it,
// and the reply a replica sends back for it.
func lookupWire() (req *Request, reply *Reply) {
	dir := capability.Mint(ServicePort("codec"), 7, capability.NewSecret([]byte("codec")))
	req = &Request{Op: OpLookupSet, Dir: dir, Set: []SetItem{{Name: "n0"}}}
	row := dirdata.Row{Name: "n0", Cap: dir, ColMasks: ownerMasks()}
	reply = &Reply{Status: StatusOK, Rows: []dirdata.Row{row}, Caps: []capability.Capability{dir}, Seq: 41, ObjSeq: 40}
	return req, reply
}

func BenchmarkDecodeRequest(b *testing.B) {
	req, _ := lookupWire()
	raw := req.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeReply(b *testing.B) {
	_, reply := lookupWire()
	raw := reply.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReply(raw); err != nil {
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
// allocates the message, each of its one-element lists and each string;
// encoding into a reused buffer allocates nothing.
func TestCodecAllocs(t *testing.T) {
	req, reply := lookupWire()
	rawReq, rawReply := req.Encode(), reply.Encode()
	var buf []byte
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"DecodeRequest", 3, func() { _, _ = DecodeRequest(rawReq) }},   // request, set, name
		{"DecodeReply", 5, func() { _, _ = DecodeReply(rawReply) }},     // reply, rows, name, masks, caps
		{"Reply.AppendTo", 0, func() { buf = reply.AppendTo(buf[:0]) }}, // into the worker's buffer
	} {
		if got := testing.AllocsPerRun(1000, c.fn); got > c.max {
			t.Errorf("%s: %.1f allocs, want ≤ %.0f", c.name, got, c.max)
		}
	}
}
