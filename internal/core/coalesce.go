package core

import (
	"encoding/binary"

	"dirsvc/internal/dirsvc"
)

// The group stream carries packed application payloads: several client
// updates ride one totally-ordered broadcast. A batch is always one
// entry; concurrently submitted single updates are coalesced by the
// sender loop, amortizing the ordering cost the paper identifies as the
// write path's dominant term (§4).
//
// Wire layout: u8 version | u16 count | count × (u64 opID | u32 len | request).
const groupPayloadVersion = 1

// maxCoalesce bounds how many pending updates one broadcast may carry.
const maxCoalesce = 64

// groupEntry is one client update inside a packed group payload.
type groupEntry struct {
	opID uint64
	raw  []byte // encoded dirsvc.Request
}

// packGroupEntries appends the packed payload of ops to dst.
func packGroupEntries(dst []byte, ops []coalesceOp) []byte {
	dst = append(dst, groupPayloadVersion)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ops)))
	for _, op := range ops {
		dst = binary.BigEndian.AppendUint64(dst, op.opID)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(op.raw)))
		dst = append(dst, op.raw...)
	}
	return dst
}

// unpackGroupEntries appends the entries of a packed payload to entries,
// each raw request a slice of payload; a malformed payload yields none.
func unpackGroupEntries(entries []groupEntry, payload []byte) ([]groupEntry, error) {
	if len(payload) < 3 || payload[0] != groupPayloadVersion {
		return nil, dirsvc.ErrBadRequest
	}
	n := int(binary.BigEndian.Uint16(payload[1:3]))
	if n == 0 || n > maxCoalesce {
		return nil, dirsvc.ErrBadRequest
	}
	off := 3
	for i := 0; i < n; i++ {
		if off+12 > len(payload) {
			return nil, dirsvc.ErrBadRequest
		}
		opID := binary.BigEndian.Uint64(payload[off : off+8])
		l := int(binary.BigEndian.Uint32(payload[off+8 : off+12]))
		off += 12
		if l < 0 || off+l > len(payload) {
			return nil, dirsvc.ErrBadRequest
		}
		entries = append(entries, groupEntry{opID: opID, raw: payload[off : off+l]})
		off += l
	}
	if off != len(payload) {
		return nil, dirsvc.ErrBadRequest
	}
	return entries, nil
}

// sendLoop is the per-server coalescing sender: it drains queued client
// updates and ships them to the group in packed broadcasts — one
// broadcast per drain — so N concurrent updates cost ~1 totally-ordered
// group message instead of N. The batch and the packed payload are the
// loop's own scratch: Send copies the payload into its frames.
func (s *Server) sendLoop() {
	defer s.wg.Done()
	var (
		batch  []coalesceOp
		packed []byte
	)
	for {
		clear(batch) // let go of the last batch's requests
		var first coalesceOp
		select {
		case <-s.stop:
			return
		case first = <-s.sendCh:
		}
		batch = drainCoalesce(batch[:0], first, s.sendCh)

		s.mu.Lock()
		member := s.member
		era := s.era
		s.mu.Unlock()
		// Drop updates queued before the last recovery: their initiators
		// already answered NoMajority and the client may have retried, so
		// broadcasting them now would apply the operation twice.
		live := batch[:0]
		for _, op := range batch {
			if op.era == era {
				live = append(live, op)
			}
		}
		batch = live
		if len(batch) == 0 {
			continue
		}

		if member == nil {
			s.failPending(batch)
			continue
		}
		packed = packGroupEntries(packed[:0], batch)
		if _, err := member.Send(packed); err != nil {
			s.failPending(batch)
			continue
		}
		s.groupSends.Add(1)
		// The broadcast is stable (resilience degree satisfied): release
		// the waiting initiators.
		s.mu.Lock()
		for _, op := range batch {
			s.sendAcked[op.opID] = true
		}
		if len(s.sendAcked) > 10000 {
			acked := make(map[uint64]bool, len(batch))
			for _, op := range batch {
				acked[op.opID] = true
			}
			s.sendAcked = acked
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// drainCoalesce appends first and every update already waiting in ch
// behind it to batch, up to maxCoalesce, without blocking: the shared
// broadcast carries exactly the backlog that accumulated while the
// previous broadcast was in flight.
func drainCoalesce(batch []coalesceOp, first coalesceOp, ch <-chan coalesceOp) []coalesceOp {
	batch = append(batch, first)
	for len(batch) < maxCoalesce {
		select {
		case op := <-ch:
			batch = append(batch, op)
		default:
			return batch
		}
	}
	return batch
}

// failPending answers every queued initiator with NoMajority after a
// failed broadcast; the client retries elsewhere.
func (s *Server) failPending(batch []coalesceOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range batch {
		s.results[op.opID] = &dirsvc.Reply{Status: dirsvc.StatusNoMajority}
		s.sendAcked[op.opID] = true
	}
	s.cond.Broadcast()
}
