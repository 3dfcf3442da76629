package dirsvc

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"dirsvc/internal/codec"
)

// This file is the server half of the push-based coherence subsystem:
// a bounded per-shard event log fed by the applier, and a lease table of
// subscribed clients that invalidations and watch events are pushed to.
//
// Every applied update appends one Event to the log. Log positions
// (indexes) are contiguous by construction, so a subscriber that knows
// the log identity and its next index can tell exactly whether it has
// seen everything: a reconnect replays the missed suffix when the
// bounded log still holds it, and yields an explicit resync marker when
// it does not (or when the log identity changed — a different replica,
// or the same server after crash recovery). On the totally-ordered
// backends the log index coincides with the commit sequence number, so
// "gap-free by index" is "gap-free by Seq".

// Event is one committed entry of a shard's update stream: the sequence
// number it committed under, the operation kind, and the directory
// objects it touched. Entries that consume a sequence number without
// changing any directory (a staged prepare, an aborted decide, a failed
// update on the group backend) appear with no objects, keeping the
// index↔Seq correspondence gap-free.
type Event struct {
	Seq     uint64
	Op      OpCode
	Objects []uint32
}

// EventBatch is the unit of event transfer: the payload of a watch
// confirmation, a lease-renewal reply, and every server push. All three
// share one shape so the client can process them uniformly.
type EventBatch struct {
	// LogID identifies the server's event log incarnation. A new server
	// process — or the same process after crash recovery — has a new
	// identity, telling subscribers their cursor is meaningless.
	LogID uint64
	// FirstIdx is the log index of Events[0]; with no events it is the
	// index the next event will get (the subscriber's starting cursor).
	FirstIdx uint64
	// TTLMillis is the lease time-to-live; a subscriber that has not
	// renewed within it is evicted and stops receiving pushes.
	TTLMillis uint32
	// Resync is set when the server could not resume the subscriber's
	// cursor: the cursor fell off the bounded log, or it belongs to a
	// different log incarnation. The subscriber must treat its cached
	// state as stale and restart from FirstIdx.
	Resync bool
	// Events are the entries from FirstIdx on, in log order.
	Events []Event
}

// EncodeEventBatch serializes a batch (Reply.Blob, push payloads).
func EncodeEventBatch(b *EventBatch) []byte {
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 128), b.LogID)
	buf = binary.BigEndian.AppendUint64(buf, b.FirstIdx)
	buf = binary.BigEndian.AppendUint32(buf, b.TTLMillis)
	buf = binary.BigEndian.AppendUint32(codec.AppendBool(buf, b.Resync), uint32(len(b.Events)))
	for _, ev := range b.Events {
		buf = append(binary.BigEndian.AppendUint64(buf, ev.Seq), uint8(ev.Op))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(ev.Objects)))
		for _, obj := range ev.Objects {
			buf = binary.BigEndian.AppendUint32(buf, obj)
		}
	}
	return buf
}

// DecodeEventBatch parses a batch.
func DecodeEventBatch(buf []byte) (*EventBatch, error) {
	rd := codec.NewReader(buf)
	b := &EventBatch{LogID: rd.U64(), FirstIdx: rd.U64(), TTLMillis: rd.U32(), Resync: rd.Bool()}
	for range rd.Count32(8 + 1 + 2) {
		ev := Event{Seq: rd.U64(), Op: OpCode(rd.U8())}
		for range rd.Count16(4) {
			ev.Objects = append(ev.Objects, rd.U32())
		}
		b.Events = append(b.Events, ev)
	}
	if rd.Failed() {
		return nil, ErrBadRequest
	}
	return b, nil
}

// DefaultEventLogSize bounds the per-server event log when the
// deployment does not configure one.
const DefaultEventLogSize = 1024

// logIDSeq mints process-unique event-log identities. Identity — not
// content — is what subscribers compare, so a counter suffices in the
// simulated world where every server shares one process.
var logIDSeq atomic.Uint64

// eventLog is a bounded ring of events with contiguous indexes. The
// first event appended after construction gets index floor+1, and on
// the group and local backends the log is attached with floor equal to
// the applied sequence number, so index == Seq there. Not goroutine
// safe; the Notifier's lock covers it.
type eventLog struct {
	id       uint64
	size     int
	firstIdx uint64 // index of the oldest event held, events[head]
	// events holds up to size events, oldest first from head on. Each
	// event's object list is the log's own copy: in the storage of the
	// event it evicted, or carved from chunk.
	events []Event
	head   int
	chunk  []uint32
}

// eventChunk is how many object numbers one carving chunk holds.
const eventChunk = 256

func newEventLog(size int, floor uint64) *eventLog {
	if size <= 0 {
		size = DefaultEventLogSize
	}
	return &eventLog{id: logIDSeq.Add(1), size: size, firstIdx: floor + 1}
}

// next returns the index the next appended event will get.
func (l *eventLog) next() uint64 { return l.firstIdx + uint64(len(l.events)) }

// append stores a copy of ev and returns its index, evicting the oldest
// entry when the ring is full. ev.Objects is copied, not kept: the
// applier hands over a list it reuses.
func (l *eventLog) append(ev Event) uint64 {
	idx := l.next()
	full := len(l.events) == l.size
	if n := len(ev.Objects); n == 0 {
		ev.Objects = nil // not the applier's empty list, whose array it reuses
	} else {
		var keep []uint32
		if full {
			keep = l.events[l.head].Objects[:0]
		}
		if cap(keep) < n {
			if len(l.chunk) < n {
				l.chunk = make([]uint32, max(n, eventChunk))
			}
			keep, l.chunk = l.chunk[:0:n], l.chunk[n:]
		}
		ev.Objects = append(keep, ev.Objects...)
	}
	if !full {
		l.events = append(l.events, ev)
		return idx
	}
	l.events[l.head] = ev
	l.head = (l.head + 1) % l.size
	l.firstIdx++
	return idx
}

// since returns a copy of the events from index `from` on. ok is false
// when the bounded log no longer holds `from` (the subscriber fell
// behind) or `from` lies beyond the log (a cursor from another
// incarnation).
func (l *eventLog) since(from uint64) ([]Event, bool) {
	if from < l.firstIdx || from > l.next() {
		return nil, false
	}
	out := make([]Event, 0, l.next()-from)
	objs := 0
	for i := from; i < l.next(); i++ {
		ev := l.events[(l.head+int(i-l.firstIdx))%len(l.events)]
		out = append(out, ev)
		objs += len(ev.Objects)
	}
	// The log reuses its object lists: the copy gets one list of its own.
	flat := make([]uint32, 0, objs)
	for i := range out {
		if o := out[i].Objects; o != nil {
			flat = append(flat, o...)
			out[i].Objects = flat[len(flat)-len(o) : len(flat) : len(flat)]
		}
	}
	return out, true
}

// subscriber is one leased client endpoint.
type subscriber struct {
	id     uint64
	push   func([]byte) error
	expiry time.Time
}

// Notifier is the lease/callback engine one directory server runs: it
// owns the event log, the lease table, and the push fan-out. Record is
// called by the applier in apply order; Subscribe and Renew implement
// the OpWatch and OpLeaseRenew operations; an internal ticker evicts
// leases that were not renewed within the TTL.
type Notifier struct {
	mu   sync.Mutex
	log  *eventLog
	subs map[uint64]*subscriber
	ttl  time.Duration

	stop chan struct{}
	done chan struct{}
}

// NewNotifier builds a notifier whose log starts at floor (events get
// indexes floor+1, floor+2, …) and starts its lease-expiry ticker.
func NewNotifier(logSize int, floor uint64, ttl time.Duration) *Notifier {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	n := &Notifier{
		log:  newEventLog(logSize, floor),
		subs: make(map[uint64]*subscriber),
		ttl:  ttl,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go n.expireLoop()
	return n
}

// Close stops the expiry ticker and drops every lease.
func (n *Notifier) Close() {
	n.mu.Lock()
	select {
	case <-n.stop:
		n.mu.Unlock()
		return
	default:
	}
	close(n.stop)
	n.subs = make(map[uint64]*subscriber)
	n.mu.Unlock()
	<-n.done
}

// TTL returns the lease time-to-live.
func (n *Notifier) TTL() time.Duration { return n.ttl }

// Subscribers returns the number of live leases (tests, monitoring).
func (n *Notifier) Subscribers() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.subs)
}

func (n *Notifier) expireLoop() {
	defer close(n.done)
	tick := n.ttl / 2
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
			n.mu.Lock()
			now := time.Now()
			for id, sub := range n.subs {
				if now.After(sub.expiry) {
					delete(n.subs, id)
				}
			}
			n.mu.Unlock()
		}
	}
}

// batchLocked builds a reply batch holding events from `from` on, or a
// resync marker when the cursor cannot be resumed. Must hold n.mu.
func (n *Notifier) batchLocked(prevLogID, from uint64) *EventBatch {
	b := &EventBatch{LogID: n.log.id, TTLMillis: uint32(n.ttl / time.Millisecond)}
	if prevLogID == n.log.id && from > 0 {
		if evs, ok := n.log.since(from); ok {
			b.FirstIdx = from
			b.Events = evs
			return b
		}
		b.Resync = true
	} else if prevLogID != 0 {
		// The cursor belongs to another log incarnation (a different
		// replica, or this server before its last recovery).
		b.Resync = true
	}
	b.FirstIdx = n.log.next()
	return b
}

// Subscribe registers (or refreshes) the lease identified by subID with
// the given push function and returns the confirmation batch: a replay
// of the missed suffix when the subscriber's cursor (prevLogID, from)
// can be resumed from the bounded log, a resync marker otherwise. A
// zero prevLogID means a fresh subscriber that wants events from now.
func (n *Notifier) Subscribe(subID uint64, prevLogID, from uint64, push func([]byte) error) *EventBatch {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case <-n.stop:
		return &EventBatch{LogID: n.log.id, FirstIdx: n.log.next(), Resync: prevLogID != 0}
	default:
	}
	n.subs[subID] = &subscriber{id: subID, push: push, expiry: time.Now().Add(n.ttl)}
	return n.batchLocked(prevLogID, from)
}

// Renew refreshes the lease identified by subID and returns the events
// from the subscriber's cursor on (covering any pushes it missed). ok
// is false when the lease has expired or never existed; the client must
// re-subscribe.
func (n *Notifier) Renew(subID, from uint64) (*EventBatch, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sub, ok := n.subs[subID]
	if !ok {
		return nil, false
	}
	sub.expiry = time.Now().Add(n.ttl)
	return n.batchLocked(n.log.id, from), true
}

// Record appends one applied event to the log and pushes it to every
// leased subscriber. It must be called in apply order; pushes are
// one-way (the network send is asynchronous) and a lost push is
// recovered by the subscriber's next renewal. A subscriber whose push
// endpoint fails outright is evicted.
func (n *Notifier) Record(ev Event) {
	n.mu.Lock()
	defer n.mu.Unlock()
	idx := n.log.append(ev)
	if len(n.subs) == 0 {
		return
	}
	payload := (&Reply{Status: StatusOK, Blob: EncodeEventBatch(&EventBatch{
		LogID:     n.log.id,
		FirstIdx:  idx,
		TTLMillis: uint32(n.ttl / time.Millisecond),
		Events:    []Event{ev},
	})}).Encode()
	for id, sub := range n.subs {
		if err := sub.push(payload); err != nil {
			delete(n.subs, id)
		}
	}
}

// Reset gives the log a fresh identity starting at floor and drops
// every lease, pushing each subscriber a final resync batch (best
// effort) so live clients re-subscribe promptly instead of waiting out
// their renewal interval. Called when a server's state was rebuilt by
// crash recovery: the applied cursor may have jumped, so no prior
// cursor into this server's log is meaningful.
func (n *Notifier) Reset(floor uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.log = newEventLog(n.log.size, floor)
	if len(n.subs) == 0 {
		return
	}
	payload := (&Reply{Status: StatusOK, Blob: EncodeEventBatch(&EventBatch{
		LogID:     n.log.id,
		FirstIdx:  n.log.next(),
		TTLMillis: uint32(n.ttl / time.Millisecond),
		Resync:    true,
	})}).Encode()
	for id, sub := range n.subs {
		_ = sub.push(payload)
		delete(n.subs, id)
	}
}
