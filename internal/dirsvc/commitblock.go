package dirsvc

import (
	"encoding/binary"
	"errors"
	"slices"

	"dirsvc/internal/codec"
	"dirsvc/internal/vdisk"
)

// CommitBlock is block 0 of a directory server's administrative
// partition (paper Fig. 4): the configuration vector describing the last
// configuration with a majority this server belonged to, the sequence
// number recorded on directory deletions, and the recovering flag that
// detects crashes during recovery.
type CommitBlock struct {
	// Up[i] is true when server i+1 was up in the last majority
	// configuration this server was part of (servers are numbered 1..N,
	// as in the paper).
	Up []bool
	// Seq is the update sequence number stored in the commit block. It
	// is only advanced when a directory is deleted (§3: the deletion
	// removes the per-directory record, so the commit block must
	// remember that an update happened).
	Seq uint64
	// Recovering is set while the recovery protocol runs. If it is
	// already set at boot, the previous recovery was interrupted and the
	// server's state may mix old and new directories: the recovery
	// sequence number is forced to zero (§3).
	Recovering bool
	// Topo is the shard's elastic-topology state at the last commit
	// block write, nil on blocks written before splits existed (the
	// tail section is guarded by a presence marker, so old blocks decode
	// with no topology and recovery keeps epoch 0).
	Topo *TopoState
}

var commitMagic = [4]byte{'C', 'M', 'T', '1'}

// ErrCorruptCommit is returned when block 0 cannot be parsed.
var ErrCorruptCommit = errors.New("dirsvc: corrupt commit block")

// Encode serializes the commit block into one disk block.
func (c *CommitBlock) Encode() []byte {
	buf := make([]byte, 0, 32+len(c.Up))
	buf = binary.BigEndian.AppendUint64(append(buf, commitMagic[:]...), c.Seq)
	buf = append(codec.AppendBool(buf, c.Recovering), uint8(len(c.Up)))
	for _, up := range c.Up {
		buf = codec.AppendBool(buf, up)
	}
	if c.Topo != nil {
		buf = append(codec.AppendBool(buf, true), EncodeTopoState(c.Topo)...)
	}
	return buf
}

// DecodeCommitBlock parses block 0. An all-zero (never written) block
// decodes as a fresh commit block for n servers with every bit down and
// sequence number zero.
func DecodeCommitBlock(raw []byte, n int) (*CommitBlock, error) {
	if !slices.ContainsFunc(raw, func(b byte) bool { return b != 0 }) {
		return &CommitBlock{Up: make([]bool, n)}, nil
	}
	rd := codec.NewReader(raw)
	magic := [4]byte(rd.Take(4))
	c := &CommitBlock{Seq: rd.U64(), Recovering: rd.Bool()}
	count := rd.Count8(1)
	if rd.Failed() || magic != commitMagic || count > 64 {
		return nil, ErrCorruptCommit
	}
	c.Up = make([]bool, count, max(count, n))
	for i := range c.Up {
		c.Up[i] = rd.Bool()
	}
	if rd.Bool() {
		topo, err := DecodeTopoState(rd.Rest())
		if err != nil {
			return nil, ErrCorruptCommit
		}
		c.Topo = topo
	}
	// A service that grew extends the vector with down bits.
	c.Up = c.Up[:max(count, n)]
	return c, nil
}

// ReadCommitBlock loads block 0 of the admin partition.
func ReadCommitBlock(admin vdisk.Storage, n int) (*CommitBlock, error) {
	raw, err := admin.ReadBlock(0)
	if err != nil {
		return nil, err
	}
	return DecodeCommitBlock(raw, n)
}

// Write stores the commit block to block 0 (one random disk access).
func (c *CommitBlock) Write(admin vdisk.Storage) error {
	return admin.WriteBlock(0, c.Encode())
}

// UpCount returns the number of servers marked up.
func (c *CommitBlock) UpCount() int {
	n := 0
	for _, up := range c.Up {
		if up {
			n++
		}
	}
	return n
}

// UpServers returns the 1-based ids of servers marked up.
func (c *CommitBlock) UpServers() []int {
	var out []int
	for i, up := range c.Up {
		if up {
			out = append(out, i+1)
		}
	}
	return out
}
