package group

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dirsvc/internal/flip"
	"dirsvc/internal/sim"
)

// TestSendingMemberStaysInViewWithoutHeartbeats: a member other than the
// sequencer whose every ALIVE is lost, but which sends once a beat, stays
// in the view. Its sends reach the sequencer, and any frame of a member
// is its heartbeat; a detector that counted only ALIVEs failed it after
// six beats.
func TestSendingMemberStaysInViewWithoutHeartbeats(t *testing.T) {
	c := newCluster(t, 3, 2)
	quiet := c.members[1]
	if quiet.Info().Sequencer == quiet.Me() {
		t.Fatal("test setup: the quiet member must not be the sequencer")
	}
	c.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		var w wireMsg
		return src == quiet.Me() && len(frame) > flipHeader && decodeWire(frame[flipHeader:], &w) == nil && w.kind == wireAlive
	})
	before := c.members[0].Info()
	c.consumeAll()
	tick := time.NewTicker(testHeartbeat)
	defer tick.Stop()
	for beat := 0; beat < 20; beat++ {
		sendWithin(t, quiet, fmt.Sprintf("beat %d", beat), time.Second)
		<-tick.C
	}
	for _, m := range c.members {
		if info := m.Info(); info.State != StateNormal || info.Epoch != before.Epoch || len(info.Members) != 3 {
			t.Fatalf("member %d after 20 beats: %+v, want the view %+v", m.Me(), info, before)
		}
	}
}

// TestIdleGroupHeartbeatDeliveries: an idle group of three on a segment
// of eight hosts puts the sequencer's heartbeat multicast (hosts − 1
// deliveries) and the two other members' heartbeats to the sequencer on
// the wire each beat: 9 group-port deliveries a beat, where a heartbeat
// multicast by every member made 3 × (hosts − 1) = 21.
func TestIdleGroupHeartbeatDeliveries(t *testing.T) {
	const hosts, beats = 8, 20
	c := newCluster(t, 3, 2)
	for i := len(c.stacks); i < hosts; i++ {
		s := flip.NewStack(c.net.AddNode(fmt.Sprintf("host%d", i)))
		t.Cleanup(s.Close)
	}
	port := testConfig(2).Port
	var deliveries atomic.Int64
	c.net.SetDropFilter(func(src, dst sim.NodeID, frame []byte) bool {
		if len(frame) > flipHeader && [6]byte(frame[1:flipHeader]) == port {
			deliveries.Add(1)
		}
		return false
	})
	time.Sleep(beats * testHeartbeat)
	n := deliveries.Load()
	// Each member's ticker may fire once more in the window than it has
	// whole beats, depending on its phase.
	perBeat := int64(hosts - 1 + 2)
	if n > (beats+1)*perBeat || n < beats/2*(hosts-1) {
		t.Fatalf("idle group: %d group-port deliveries in %d beats, want at most %d a beat and the sequencer's heartbeat", n, beats, perBeat)
	}
	t.Logf("idle group: %d group-port deliveries in %d beats (%.1f a beat)", n, beats, float64(n)/beats)
}

// TestDetectionWithinSevenBeats: the sequencer fails a crashed member,
// and every member fails a crashed sequencer, within seven beats of the
// crash: six of silence and one of tick phase. The members' tickers run
// nearly in phase, so about one crash in three is failed just under
// seven beats after it; half a beat more covers the host's scheduling of
// the ticker and of Receive.
func TestDetectionWithinSevenBeats(t *testing.T) {
	cfg := testConfig(2)
	cfg.HeartbeatInterval = 50 * time.Millisecond
	bound := 7*cfg.HeartbeatInterval + cfg.HeartbeatInterval/2
	for _, tc := range []struct {
		name    string
		crashed int // index of the member crashed; member 0 is the sequencer
	}{
		{"member", 2},
		{"sequencer", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newClusterWith(t, 3, cfg)
			crashed := c.members[tc.crashed]
			var watchers []*Member
			for _, m := range c.members {
				// The sequencer watches every member, a member the sequencer.
				if m != crashed && (tc.crashed == 0 || m == c.members[0]) {
					watchers = append(watchers, m)
				}
			}
			start := time.Now()
			c.net.Node(crashed.Me()).Crash()
			took := make(chan time.Duration, len(watchers))
			for _, m := range watchers {
				go func(m *Member) {
					if _, err := m.Receive(); !errors.Is(err, ErrGroupFailure) {
						t.Errorf("member %d: Receive = %v, want ErrGroupFailure", m.Me(), err)
					}
					took <- time.Since(start)
				}(m)
			}
			for range watchers {
				d := <-took
				if d > bound {
					t.Errorf("a watcher failed the crashed %s after %v, more than 7 beats", tc.name, d)
				}
				t.Logf("failed after %v (%.1f beats)", d, float64(d)/float64(cfg.HeartbeatInterval))
			}
		})
	}
}
