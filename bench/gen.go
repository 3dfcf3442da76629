package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"
)

type opKind uint8

const (
	opLookup opKind = iota
	opPair          // append a fresh name, then delete it: one op, as in Fig. 7/9
)

func (k opKind) String() string {
	if k == opLookup {
		return "lookup"
	}
	return "pair"
}

// op is one generated call. For a lookup, name indexes the populated
// names; for a pair it is the op's position in the client's sequence,
// which tmpName turns into a row name unique to (stream, client, index),
// so a pair can never collide with a populated row or another pair.
type op struct {
	kind opKind
	dir  int
	name int
}

// Streams keep the warm-up's ops apart from the measured ones, so the
// measured sequence depends on the seed only, not on how far the warm-up
// got.
const (
	streamMeasured = 0
	streamWarmup   = 1
)

// generator yields client ci's op sequence. The sequence is a pure
// function of (seed, stream, client): the seed fixes client, directory,
// name and kind of every op and nothing else.
type generator struct {
	w      *workload
	stream int
	client int
	rng    *rand.Rand
	lo, hi int // the directories the client's pairs go to
	count  int
}

func newGenerator(w *workload, seed int64, stream, client int) *generator {
	lo, _ := ownDirs(w, client)
	hi := lo + pairDirs
	src := seed*1000003 + int64(stream)*101 + int64(client)
	return &generator{w: w, stream: stream, client: client, rng: rand.New(rand.NewSource(src)), lo: lo, hi: hi}
}

func (g *generator) next() op {
	g.count++
	if g.rng.Intn(100) < g.w.lookupPct[g.client] {
		return op{kind: opLookup, dir: g.rng.Intn(g.w.dirs), name: g.rng.Intn(g.w.names)}
	}
	return op{kind: opPair, dir: g.lo + g.rng.Intn(g.hi-g.lo), name: g.count}
}

// tmpName is the row a pair appends and deletes.
func tmpName(stream, client, index int) string {
	return "t" + strconv.Itoa(stream) + "." + strconv.Itoa(client) + "." + strconv.Itoa(index)
}

// sequenceHash fingerprints the first n measured ops of both clients; two
// runs with one seed must agree on it, two seeds must not.
func sequenceHash(w *workload, seed int64, n int) uint64 {
	h := fnv.New64a()
	var buf [10]byte
	for client := 0; client < 2; client++ {
		g := newGenerator(w, seed, streamMeasured, client)
		for i := 0; i < n; i++ {
			o := g.next()
			buf[0], buf[1] = byte(client), byte(o.kind)
			binary.LittleEndian.PutUint32(buf[2:], uint32(o.dir))
			binary.LittleEndian.PutUint32(buf[6:], uint32(o.name))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// dueOp is one open-loop op with the time, from the start of the window,
// at which it is due.
type dueOp struct {
	op
	client int
	due    time.Duration
}

// schedule lays both clients' ops on the fixed open-loop timetable: each
// client's k-th op is due k periods in, B half a period after A.
func schedule(w *workload, seed int64, stream int, window time.Duration) []dueOp {
	period := time.Second / time.Duration(w.ratePerClient)
	perClient := int(window / period)
	gens := [2]*generator{newGenerator(w, seed, stream, 0), newGenerator(w, seed, stream, 1)}
	out := make([]dueOp, 0, 2*perClient)
	for k := 0; k < perClient; k++ {
		for ci, g := range gens {
			out = append(out, dueOp{
				op:     g.next(),
				client: ci,
				due:    time.Duration(k)*period + time.Duration(ci)*period/2,
			})
		}
	}
	return out
}
