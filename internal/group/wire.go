package group

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dirsvc/internal/sim"
)

// Wire message kinds.
const (
	wireSendReq  = 1  // member → sequencer: please sequence this payload
	wireOrd      = 2  // sequencer → multicast: sequenced message
	wireAccept   = 3  // member → sequencer: I buffered ORD seq
	wireDone     = 4  // sequencer → sender: resilience degree satisfied
	wireJoinReq  = 5  // joiner → multicast: who runs this group?
	wireWelcome  = 6  // sequencer → joiner: group state snapshot
	wireRetrans  = 7  // member → sequencer: resend seqs [from, to]
	wireAlive    = 8  // member → multicast: heartbeat
	wireInvite   = 9  // reset coordinator → multicast: reset proposal
	wireResetAck = 10 // member → coordinator: proposal accepted
	wireCommit   = 11 // coordinator → multicast: new view
	wireLeave    = 12 // member → sequencer: sequence my departure
)

// Payload kinds inside ORD messages.
const (
	ordApp   = 1
	ordJoin  = 2
	ordLeave = 3
)

// groupID distinguishes independent incarnations of a group on the same
// port (e.g. two groups created on both sides of a partition). Messages
// carrying a foreign groupID are ignored.
type groupID uint64

// proposal orders concurrent resets: higher epoch wins, ties broken by
// node id.
type proposal struct {
	epoch uint64
	node  sim.NodeID
}

func (p proposal) less(q proposal) bool {
	if p.epoch != q.epoch {
		return p.epoch < q.epoch
	}
	return p.node < q.node
}

// wireMsg is the decoded form of every group protocol message. Unused
// fields are zero.
type wireMsg struct {
	kind    byte
	gid     groupID
	epoch   uint64
	seq     uint64 // ORD/ACCEPT: sequence number; WELCOME: join seq
	from    sim.NodeID
	msgID   uint64 // SEND_REQ/ORD/DONE: per-sender id for dedup
	ordKind byte   // ORD: app/join/leave
	node    sim.NodeID
	seq2    uint64       // RETRANS: end of range; COMMIT: maxSeq
	members []sim.NodeID // WELCOME/COMMIT
	payload []byte
}

var errShortMsg = errors.New("group: short message")

// size is the length of w's encoding.
func (w *wireMsg) size() int { return wireFixed + 4*len(w.members) + len(w.payload) }

// appendTo appends w's encoding to dst.
func (w *wireMsg) appendTo(buf []byte) []byte {
	buf = append(buf, w.kind)
	buf = binary.BigEndian.AppendUint64(buf, uint64(w.gid))
	buf = binary.BigEndian.AppendUint64(buf, w.epoch)
	buf = binary.BigEndian.AppendUint64(buf, w.seq)
	buf = binary.BigEndian.AppendUint64(buf, w.seq2)
	buf = binary.BigEndian.AppendUint64(buf, w.msgID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.from))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.node))
	buf = append(buf, w.ordKind)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(w.members)))
	for _, nd := range w.members {
		buf = binary.BigEndian.AppendUint32(buf, uint32(nd))
	}
	return append(buf, w.payload...)
}

const wireFixed = 1 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 1 + 2

// decodeWire parses buf into w, which the caller owns (the dispatcher
// decodes onto its stack and copies only what it keeps). w.payload is a
// slice of buf: a received frame is never changed, so it may be kept.
func decodeWire(buf []byte, w *wireMsg) error {
	if len(buf) < wireFixed {
		return errShortMsg
	}
	*w = wireMsg{
		kind:    buf[0],
		gid:     groupID(binary.BigEndian.Uint64(buf[1:9])),
		epoch:   binary.BigEndian.Uint64(buf[9:17]),
		seq:     binary.BigEndian.Uint64(buf[17:25]),
		seq2:    binary.BigEndian.Uint64(buf[25:33]),
		msgID:   binary.BigEndian.Uint64(buf[33:41]),
		from:    sim.NodeID(binary.BigEndian.Uint32(buf[41:45])),
		node:    sim.NodeID(binary.BigEndian.Uint32(buf[45:49])),
		ordKind: buf[49],
	}
	n := int(binary.BigEndian.Uint16(buf[50:52]))
	off := wireFixed
	if len(buf) < off+4*n {
		return fmt.Errorf("members: %w", errShortMsg)
	}
	if n > 0 {
		w.members = make([]sim.NodeID, n)
		for i := 0; i < n; i++ {
			w.members[i] = sim.NodeID(binary.BigEndian.Uint32(buf[off : off+4]))
			off += 4
		}
	}
	if off < len(buf) {
		w.payload = buf[off:]
	}
	return nil
}
