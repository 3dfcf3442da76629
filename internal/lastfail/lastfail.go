// Package lastfail implements Skeen's algorithm for determining the set
// of processes that failed last [Skeen, ACM TOCS 3(1), 1985], as used by
// the recovery protocol of the group directory service (paper §3.2).
//
// Each server keeps a mourned set: the servers it saw crash before it
// crashed itself (derived from its on-disk configuration vector). During
// recovery the servers exchange mourned sets; each server unions what it
// receives into its own set and tracks which servers it exchanged with
// (the new group). The algorithm terminates when every server outside the
// union of mourned sets is part of the new group: that remainder — the
// "last set" — is exactly the set of servers that may have performed the
// latest update. Recovery may only proceed once the last set is a subset
// of the new group (paper §3.2, condition 2).
package lastfail

import "sort"

// Set is a set of server ids.
type Set map[int]bool

// NewSet builds a set from ids.
func NewSet(ids ...int) Set {
	s := make(Set, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for id := range s {
		out[id] = true
	}
	return out
}

// Union adds all members of other to s.
func (s Set) Union(other Set) {
	for id, in := range other {
		if in {
			s[id] = true
		}
	}
}

// Contains reports whether id is in s.
func (s Set) Contains(id int) bool { return s[id] }

// SubsetOf reports whether every member of s is in other.
func (s Set) SubsetOf(other Set) bool {
	for id, in := range s {
		if in && !other[id] {
			return false
		}
	}
	return true
}

// Sorted returns the members in ascending order.
func (s Set) Sorted() []int {
	out := make([]int, 0, len(s))
	for id, in := range s {
		if in {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// MournedFromConfig derives a server's mourned set from its configuration
// vector: every server whose bit is down was seen to crash before this
// server last wrote its commit block (paper Fig. 4).
func MournedFromConfig(all []int, up Set) Set {
	mourned := make(Set, len(all))
	for _, id := range all {
		if !up[id] {
			mourned[id] = true
		}
	}
	return mourned
}

// State is one recovering server's view of the algorithm.
type State struct {
	all      []int
	me       int
	mourned  Set
	newGroup Set
}

// NewState starts the algorithm at server me. all lists every server of
// the service; mourned is me's initial mourned set (from its config
// vector). The new group initially contains only me, as in Fig. 6.
func NewState(all []int, me int, mourned Set) *State {
	return &State{
		all:      append([]int(nil), all...),
		me:       me,
		mourned:  mourned.Clone(),
		newGroup: NewSet(me),
	}
}

// Exchange records a successful mourned-set exchange with server id: the
// server joins the new group and its mourned set is unioned into ours.
func (s *State) Exchange(id int, theirMourned Set) {
	s.newGroup[id] = true
	s.mourned.Union(theirMourned)
}

// NewGroup returns the servers exchanged with so far (including me).
func (s *State) NewGroup() Set { return s.newGroup.Clone() }

// LastSet returns all servers minus the mourned set: the servers that
// possibly performed the latest update.
func (s *State) LastSet() Set {
	last := make(Set)
	for _, id := range s.all {
		if !s.mourned[id] {
			last[id] = true
		}
	}
	return last
}

// CanRecover reports whether the last set is covered by the new group —
// the paper's condition 2. (Condition 1, majority, is checked by the
// caller against the service size.)
func (s *State) CanRecover() bool {
	return s.LastSet().SubsetOf(s.newGroup)
}

// CanRecoverWithImprovement applies the §3.2 refinement on top of
// CanRecover: a pair of servers may also recover when the member that
// never failed holds a sequence number at least as high as every other
// exchanged server's, because then it is certain the stayed-up server did
// not miss an update made by a currently unavailable server after it
// formed a smaller group. seqnos maps exchanged servers (and me) to their
// recovery sequence numbers; stayedUp identifies the server that did not
// fail, or -1 if none.
func (s *State) CanRecoverWithImprovement(seqnos map[int]uint64, stayedUp int) bool {
	if s.CanRecover() {
		return true
	}
	if stayedUp < 0 || !s.newGroup[stayedUp] {
		return false
	}
	stayedSeq, ok := seqnos[stayedUp]
	if !ok {
		return false
	}
	for id, seq := range seqnos {
		if s.newGroup[id] && seq > stayedSeq {
			return false
		}
	}
	return true
}
