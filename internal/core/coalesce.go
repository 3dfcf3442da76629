package core

import (
	"encoding/binary"

	"dirsvc/internal/codec"
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

// packGroupEntries appends the packed payload of ops to dst, encoding
// each request in place.
func packGroupEntries(dst []byte, ops []coalesceOp) []byte {
	dst = append(dst, groupPayloadVersion)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ops)))
	for _, op := range ops {
		dst = binary.BigEndian.AppendUint64(dst, op.opID)
		at := len(dst)
		dst = op.w.req.AppendTo(append(dst, 0, 0, 0, 0))
		binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// unpackGroupEntries appends the entries of a packed payload to entries,
// each raw request a slice of payload; a malformed payload yields none.
func unpackGroupEntries(entries []groupEntry, payload []byte) ([]groupEntry, error) {
	rd := codec.NewAliasReader(payload)
	version, n := rd.U8(), rd.Count16(8+4)
	if version != groupPayloadVersion || n == 0 || n > maxCoalesce {
		return nil, dirsvc.ErrBadRequest
	}
	for range n {
		entries = append(entries, groupEntry{opID: rd.U64(), raw: rd.Bytes()})
	}
	if !rd.Done() {
		return nil, dirsvc.ErrBadRequest
	}
	return entries, nil
}

// sendLoop is the per-server coalescing sender: it drains queued client
// updates and ships them to the group in packed broadcasts — one
// broadcast per drain — so N concurrent updates cost ~1 totally-ordered
// group message instead of N. The batch and the packed payload are the
// loop's own scratch: Send copies the payload into its frames. Each
// request is encoded straight into the payload, under s.mu, while its
// initiator waits for it: an initiator deletes its record under that lock
// before it returns.
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

		// Drop updates queued before the last recovery: their initiators
		// already answered NoMajority and the client may have retried, so
		// broadcasting them now would apply the operation twice.
		s.mu.Lock()
		member := s.member
		live := batch[:0]
		for _, op := range batch {
			if s.waiterLocked(op) != nil {
				live = append(live, op)
			}
		}
		batch = live
		if len(batch) > 0 && member != nil {
			packed = packGroupEntries(packed[:0], batch)
		}
		s.mu.Unlock()
		if len(batch) == 0 {
			continue
		}

		if member == nil {
			s.failPending(batch)
			continue
		}
		if _, err := member.Send(packed); err != nil {
			s.failPending(batch)
			continue
		}
		s.groupSends.Add(1)
		// The broadcast is stable (resilience degree satisfied): release
		// the waiting initiators.
		s.mu.Lock()
		for _, op := range batch {
			if w := s.waiterLocked(op); w != nil {
				w.acked = true
			}
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

// failPending answers every initiator of batch still waiting with
// NoMajority after a failed broadcast; the client retries elsewhere.
func (s *Server) failPending(batch []coalesceOp) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range batch {
		if w := s.waiterLocked(op); w != nil {
			w.reply = dirsvc.Reply{Status: dirsvc.StatusNoMajority}
			w.applied, w.acked = true, true
		}
	}
	s.cond.Broadcast()
}
