package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dirsvc/internal/capability"
	"dirsvc/internal/flip"
)

// flipHeader is the length of the FLIP header every frame starts with;
// the rpc codecs read what follows it.
var flipHeader = len(flip.NewFrame(capability.Port{}, 0))

// FuzzRequestFrame: a request frame built from a transaction id, n
// acknowledged ids (0 to maxAcks) and a payload parses back to them; and
// data, read as the rpc bytes of a request frame, never panics the parse,
// is rejected when it is shorter than its header or its ack count says,
// and otherwise builds back into the same bytes. The seed corpus is in
// testdata/fuzz/FuzzRequestFrame.
func FuzzRequestFrame(f *testing.F) {
	port, replyPort := capability.PortFromString("svc"), capability.PortFromString("reply")
	f.Fuzz(func(t *testing.T, tx uint64, n uint8, data []byte) {
		acks := make([]uint64, n)
		for i := range acks {
			acks[i] = tx ^ uint64(i)<<32
		}
		req, packed, ok := parseRequest(requestFrame(port, tx, replyPort, acks, data)[flipHeader:])
		if !ok || req.tx != tx || req.replyPort != replyPort || !bytes.Equal(req.Payload, data) || !bytes.Equal(packed, packAcks(acks)) {
			t.Fatalf("request (tx %d, %d acks, %q) parsed back as ok=%v tx %d reply port %v acks %x payload %q",
				tx, n, data, ok, req.tx, req.replyPort, packed, req.Payload)
		}

		req, packed, ok = parseRequest(data)
		switch {
		case len(data) < requestHeader:
			if ok {
				t.Fatalf("%d bytes, shorter than the header, accepted", len(data))
			}
		case int(data[requestHeader-1]) > (len(data)-requestHeader)/8:
			if ok {
				t.Fatalf("%d acks claimed by %d bytes accepted", data[requestHeader-1], len(data))
			}
		case !ok:
			t.Fatalf("well-formed request %x rejected", data)
		default:
			acks = acks[:0]
			for b := packed; len(b) > 0; b = b[8:] {
				acks = append(acks, binary.BigEndian.Uint64(b))
			}
			// The op byte is the dispatcher's to read, not the parse's.
			rebuilt := requestFrame(port, req.tx, req.replyPort, acks, req.Payload)[flipHeader:]
			if !bytes.Equal(rebuilt[1:], data[1:]) {
				t.Fatalf("request %x parsed and rebuilt as %x", data, rebuilt)
			}
		}
	})
}

// packAcks lays ids out as a request frame carries them.
func packAcks(ids []uint64) []byte {
	var b []byte
	for _, id := range ids {
		b = binary.BigEndian.AppendUint64(b, id)
	}
	return b
}

// FuzzReplyFrame: a server-to-client frame built from an op, id, load
// hint and payload decodes back to them; and data, read as the rpc bytes
// of one, never panics the decode, is rejected when shorter than its
// header and otherwise encodes back into the same bytes. The seed corpus
// is in testdata/fuzz/FuzzReplyFrame.
func FuzzReplyFrame(f *testing.F) {
	replyPort := capability.PortFromString("reply")
	f.Fuzz(func(t *testing.T, op byte, tx uint64, hint byte, data []byte) {
		gotOp, gotTx, gotHint, payload, err := decodeReply(replyFrame(replyPort, op, tx, hint, data)[flipHeader:])
		if err != nil || gotOp != op || gotTx != tx || gotHint != hint || !bytes.Equal(payload, data) {
			t.Fatalf("frame (op %d, tx %d, hint %d, %q) decoded as op %d tx %d hint %d %q, err %v",
				op, tx, hint, data, gotOp, gotTx, gotHint, payload, err)
		}

		gotOp, gotTx, gotHint, payload, err = decodeReply(data)
		if len(data) < 10 {
			if err == nil {
				t.Fatalf("%d bytes, shorter than the header, accepted", len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed frame %x rejected: %v", data, err)
		}
		if rebuilt := replyFrame(replyPort, gotOp, gotTx, gotHint, payload)[flipHeader:]; !bytes.Equal(rebuilt, data) {
			t.Fatalf("frame %x decoded and rebuilt as %x", data, rebuilt)
		}
	})
}
