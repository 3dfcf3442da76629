package dirsvc

import (
	"encoding/binary"
	"fmt"

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

var commitMagic = [4]byte{'C', 'M', 'T', '2'}

// Encode serializes the commit block into one disk block: a sealed frame
// (codec.Seal) whose body is seq u64 | recovering u8 | count u8 |
// count × up u8 | topology marker u8 [| topology].
func (c *CommitBlock) Encode() []byte {
	buf := make([]byte, codec.Header, codec.Header+32+len(c.Up))
	buf = append(codec.AppendBool(binary.BigEndian.AppendUint64(buf, c.Seq), c.Recovering), uint8(len(c.Up)))
	for _, up := range c.Up {
		buf = codec.AppendBool(buf, up)
	}
	if c.Topo != nil {
		buf = append(codec.AppendBool(buf, true), EncodeTopoState(c.Topo)...)
	}
	return codec.Seal(buf[:0], commitMagic, 0, buf[codec.Header:])
}

// DecodeCommitBlock parses block 0. An all-zero (never written) block
// decodes as a fresh commit block for n servers with every bit down and
// sequence number zero; a block that does not open, or whose body does
// not parse, is an error wrapping codec.ErrCorrupt.
func DecodeCommitBlock(raw []byte, n int) (*CommitBlock, error) {
	body, err := codec.Open(raw, commitMagic, 0)
	if body == nil && err == nil {
		return &CommitBlock{Up: make([]bool, n)}, nil
	}
	rd := codec.NewReader(body)
	c := &CommitBlock{Seq: rd.U64(), Recovering: rd.Bool()}
	count := rd.Count8(1)
	if err != nil || rd.Failed() || count > 64 {
		return nil, corrupt("commit block")
	}
	c.Up = make([]bool, count, max(count, n))
	for i := range c.Up {
		c.Up[i] = rd.Bool()
	}
	if rd.Bool() {
		if c.Topo, err = DecodeTopoState(rd.Rest()); err != nil {
			return nil, corrupt("commit block")
		}
	}
	// A service that grew extends the vector with down bits.
	c.Up = c.Up[:max(count, n)]
	return c, nil
}

// corrupt is the error of a durable structure that does not open
// (codec.Open) or whose body does not parse.
func corrupt(what string) error { return fmt.Errorf("dirsvc: %s: %w", what, codec.ErrCorrupt) }

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
