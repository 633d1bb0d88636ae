// Package fs implements D2-FS (§3): a CFS-style file system layered on
// DHT blocks with locality-preserving keys. It maintains four block types
// — a mutable signed root block, directory blocks, file inodes, and data
// blocks — all at most 8 KB. Metadata blocks store the content hashes and
// version hashes of the blocks they point to, so signing the root signs
// the whole tree, and slightly stale readers still fetch consistent old
// versions (§4.2). Small file data is inlined in the metadata block.
// A 30-second write-back cache absorbs temporary files and repeat reads.
package fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/trace"
	"github.com/defragdht/d2/internal/wire"
)

// BlockSize is the maximum block payload (§3).
const BlockSize = trace.BlockSize

// InlineMax is the largest file stored inline in its metadata block.
const InlineMax = 4096

// Errors mirroring os file-system semantics.
var (
	ErrNotExist  = errors.New("fs: file does not exist")
	ErrExist     = errors.New("fs: file already exists")
	ErrNotDir    = errors.New("fs: not a directory")
	ErrIsDir     = errors.New("fs: is a directory")
	ErrNotEmpty  = errors.New("fs: directory not empty")
	ErrReadOnly  = errors.New("fs: volume opened read-only")
	ErrIntegrity = errors.New("fs: block integrity check failed")
	ErrBadSig    = errors.New("fs: root signature invalid")
	// ErrNoSlot reports a directory whose slot budget (§4.2) is spent:
	// each of its 2-byte slots has been handed out once, and a slot is
	// never handed out twice, so the directory takes no new entries.
	ErrNoSlot = errors.New("fs: directory has no free slot")
)

// maxSlot is the last slot a directory hands out. Slots run 1..maxSlot in
// creation order; NextSlot past maxSlot marks the budget spent.
const maxSlot = 0xfffe

// Inode is a file or directory's metadata block (block 0 of its key
// range). For directories, the content blocks hold the serialized entry
// list.
type Inode struct {
	IsDir bool
	Size  int64
	// Inline holds the whole content when it fits (≤ InlineMax).
	Inline []byte
	// BlockVers and BlockHashes describe content blocks 1..N: the
	// version hash selecting each block's key and the content hash
	// verifying it.
	BlockVers   []uint32
	BlockHashes [][32]byte
	// NextSlot is the next unused 2-byte directory slot (directories
	// only; §4.2 assigns slots by examining the directory state).
	NextSlot uint16
}

// allocSlot hands out the directory's next unused slot, failing with
// ErrNoSlot once the budget is spent instead of wrapping round to a slot a
// live entry may still hold. A zero NextSlot counts as 1.
func (ino *Inode) allocSlot() (uint16, error) {
	slot := max(ino.NextSlot, 1)
	if slot > maxSlot {
		return 0, ErrNoSlot
	}
	ino.NextSlot = slot + 1
	return slot, nil
}

// DirEntry is one name in a directory.
type DirEntry struct {
	Name  string
	IsDir bool
	Size  int64
	// Slot is the 2-byte value this entry consumes in its directory.
	Slot uint16
	// Ver and Hash locate and verify the child's inode block.
	Ver  uint32
	Hash [32]byte
	// Moved marks a renamed entry: the child's blocks keep their original
	// keys (§4.2); OrigSlots/OrigRemainder reconstruct that key prefix.
	Moved         bool
	OrigSlots     []uint16
	OrigRemainder [8]byte
}

// RootBlock is the volume's only mutable block: it embeds the root
// directory's inode and is signed by the publisher, which transitively
// signs all metadata (§3).
type RootBlock struct {
	Name      string
	PublicKey []byte
	Version   uint32
	Root      Inode
	Signature []byte
}

// Metadata blocks carry a hand-rolled binary encoding (internal/wire):
// a one-byte kind magic, a one-byte format version, then the fields in
// fixed order. Unlike gob, the bytes are canonical — identical across
// processes regardless of encode history — so content hashes and block
// keys derived from them agree cluster-wide.
const (
	magicInode   = 'I'
	magicEntries = 'E'
	magicRoot    = 'R'
	blockCodecV1 = 1
)

// appendInode appends an inode's fields (shared by the inode block and
// root block encodings).
func appendInode(b []byte, ino *Inode) []byte {
	b = wire.AppendBool(b, ino.IsDir)
	b = wire.AppendI64(b, ino.Size)
	b = wire.AppendBytes(b, ino.Inline)
	b = wire.AppendU32(b, uint32(len(ino.BlockVers)))
	for _, v := range ino.BlockVers {
		b = wire.AppendU32(b, v)
	}
	b = wire.AppendU32(b, uint32(len(ino.BlockHashes)))
	for i := range ino.BlockHashes {
		b = append(b, ino.BlockHashes[i][:]...)
	}
	return wire.AppendU16(b, ino.NextSlot)
}

// readInodeFields decodes appendInode's output. Inline content borrows
// the block buffer: an inode block is kept, unchanged, in the read cache
// for as long as its decode, and ReadFile hands out a copy. A root block
// copies it (decodeRoot).
func readInodeFields(r *wire.Reader, ino *Inode) {
	ino.IsDir = r.Bool()
	ino.Size = r.I64()
	ino.Inline = r.Bytes()
	n := r.Count(4)
	if n > 0 {
		ino.BlockVers = make([]uint32, n)
		for i := range ino.BlockVers {
			ino.BlockVers[i] = r.U32()
		}
	} else {
		ino.BlockVers = nil
	}
	n = r.Count(32)
	if n > 0 {
		ino.BlockHashes = make([][32]byte, n)
		for i := range ino.BlockHashes {
			copy(ino.BlockHashes[i][:], r.Take(32))
		}
	} else {
		ino.BlockHashes = nil
	}
	ino.NextSlot = r.U16()
}

// checkMagic consumes and validates a block's kind and version bytes.
func checkMagic(r *wire.Reader, kind byte) error {
	if got := r.U8(); got != kind && r.Err() == nil {
		return fmt.Errorf("%w: block magic %q (want %q)", wire.ErrMalformed, got, kind)
	}
	if v := r.U8(); v != blockCodecV1 && r.Err() == nil {
		return fmt.Errorf("%w: block codec version %d", wire.ErrMalformed, v)
	}
	return r.Err()
}

// encodeInode serializes a file or directory metadata block.
func encodeInode(ino *Inode) []byte {
	b := make([]byte, 0, 64+len(ino.Inline)+4*len(ino.BlockVers)+32*len(ino.BlockHashes))
	b = append(b, magicInode, blockCodecV1)
	return appendInode(b, ino)
}

// decodeInode parses an inode block.
func decodeInode(data []byte) (Inode, error) {
	var ino Inode
	r := wire.NewReader(data)
	if err := checkMagic(&r, magicInode); err != nil {
		return Inode{}, fmt.Errorf("fs: decode inode: %w", err)
	}
	readInodeFields(&r, &ino)
	r.ExpectEmpty()
	if err := r.Err(); err != nil {
		return Inode{}, fmt.Errorf("fs: decode inode: %w", err)
	}
	return ino, nil
}

// encodeEntries serializes a directory's entry list (its content blocks).
func encodeEntries(entries []DirEntry) []byte {
	b := []byte{magicEntries, blockCodecV1}
	b = wire.AppendU32(b, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		b = wire.AppendShortString(b, e.Name)
		b = wire.AppendBool(b, e.IsDir)
		b = wire.AppendI64(b, e.Size)
		b = wire.AppendU16(b, e.Slot)
		b = wire.AppendU32(b, e.Ver)
		b = append(b, e.Hash[:]...)
		b = wire.AppendBool(b, e.Moved)
		b = wire.AppendU16(b, uint16(len(e.OrigSlots)))
		for _, s := range e.OrigSlots {
			b = wire.AppendU16(b, s)
		}
		b = append(b, e.OrigRemainder[:]...)
	}
	return b
}

// minDirEntry is the smallest encoded DirEntry.
const minDirEntry = 2 + 1 + 8 + 2 + 4 + 32 + 1 + 2 + 8

// decodeEntries parses a directory's entry list.
func decodeEntries(content []byte) ([]DirEntry, error) {
	r := wire.NewReader(content)
	if err := checkMagic(&r, magicEntries); err != nil {
		return nil, fmt.Errorf("fs: decode dir entries: %w", err)
	}
	n := r.Count(minDirEntry)
	var entries []DirEntry
	if n > 0 {
		entries = make([]DirEntry, n)
	}
	for i := range entries {
		e := &entries[i]
		e.Name = r.ShortString()
		e.IsDir = r.Bool()
		e.Size = r.I64()
		e.Slot = r.U16()
		e.Ver = r.U32()
		copy(e.Hash[:], r.Take(32))
		e.Moved = r.Bool()
		if ns := int(r.U16()); ns > 0 && r.Err() == nil {
			if ns*2 > r.Len() {
				return nil, fmt.Errorf("fs: decode dir entries: %w: slot count %d", wire.ErrMalformed, ns)
			}
			e.OrigSlots = make([]uint16, ns)
			for j := range e.OrigSlots {
				e.OrigSlots[j] = r.U16()
			}
		}
		copy(e.OrigRemainder[:], r.Take(8))
	}
	r.ExpectEmpty()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("fs: decode dir entries: %w", err)
	}
	return entries, nil
}

// encodeRoot serializes the volume's signed root block.
func encodeRoot(root *RootBlock) []byte {
	b := []byte{magicRoot, blockCodecV1}
	b = wire.AppendString(b, root.Name)
	b = wire.AppendBytes(b, root.PublicKey)
	b = wire.AppendU32(b, root.Version)
	b = appendInode(b, &root.Root)
	return wire.AppendBytes(b, root.Signature)
}

// decodeRoot parses a root block.
func decodeRoot(data []byte) (RootBlock, error) {
	var root RootBlock
	r := wire.NewReader(data)
	if err := checkMagic(&r, magicRoot); err != nil {
		return RootBlock{}, fmt.Errorf("fs: decode root block: %w", err)
	}
	root.Name = r.String()
	root.PublicKey = r.BytesCopy()
	root.Version = r.U32()
	readInodeFields(&r, &root.Root)
	root.Root.Inline = bytes.Clone(root.Root.Inline)
	root.Signature = r.BytesCopy()
	r.ExpectEmpty()
	if err := r.Err(); err != nil {
		return RootBlock{}, fmt.Errorf("fs: decode root block: %w", err)
	}
	return root, nil
}

// contentHash is the integrity hash stored in parent metadata.
func contentHash(data []byte) [32]byte { return sha256.Sum256(data) }

// versionHash derives the 4-byte version field of a block's key from the
// block's content hash (§4.2: the last key bytes distinguish versions of
// an overwritten block), so a written block is hashed once.
func versionHash(h [32]byte) uint32 {
	v := binary.BigEndian.Uint32(h[:4])
	if v == 0 {
		v = 1 // version 0 is reserved for in-place metadata
	}
	return v
}

// signablePayload serializes the root block without its signature.
//
// The payload is a hand-rolled canonical encoding, NOT gob: gob assigns
// wire type IDs from a process-global counter in first-use order, so the
// same struct encodes to different bytes depending on what else the
// process gob-encoded earlier (e.g. transport RPCs). A signature over a
// gob encoding therefore only verifies in a process whose encode history
// matches the signer's — which is why it must never be signed directly.
func (r *RootBlock) signablePayload() ([]byte, error) {
	var buf bytes.Buffer
	writeBytes := func(b []byte) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(b)))
		buf.Write(n[:])
		buf.Write(b)
	}
	writeU32 := func(v uint32) {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], v)
		buf.Write(n[:])
	}
	writeBytes([]byte(r.Name))
	writeBytes(r.PublicKey)
	writeU32(r.Version)
	ino := &r.Root
	if ino.IsDir {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], uint64(ino.Size))
	buf.Write(sz[:])
	writeBytes(ino.Inline)
	writeU32(uint32(len(ino.BlockVers)))
	for _, v := range ino.BlockVers {
		writeU32(v)
	}
	writeU32(uint32(len(ino.BlockHashes)))
	for i := range ino.BlockHashes {
		buf.Write(ino.BlockHashes[i][:])
	}
	writeU32(uint32(ino.NextSlot))
	return buf.Bytes(), nil
}

// pathCursor tracks the slot chain while resolving a path, producing the
// child key prefixes the Figure 4 encoding needs. Moved entries (renames)
// freeze the cursor at the child's original encoding so blocks keep their
// keys (§4.2).
type pathCursor struct {
	vol   keys.VolumeID
	slots []uint16
	// deep holds components beyond MaxPathDepth, hashed into the key's
	// remainder field.
	deep []string
	// frozenRemainder carries a moved deep entry's precomputed remainder.
	frozen          bool
	frozenRemainder [8]byte
}

// newCursor starts at the volume root.
func newCursor(vol keys.VolumeID) pathCursor {
	return pathCursor{vol: vol}
}

// child returns the cursor for a child entry with the given name.
func (c pathCursor) child(e *DirEntry, name string) pathCursor {
	if e.Moved {
		out := pathCursor{vol: c.vol, slots: append([]uint16{}, e.OrigSlots...)}
		if e.OrigRemainder != ([8]byte{}) {
			out.frozen = true
			out.frozenRemainder = e.OrigRemainder
		}
		return out
	}
	out := pathCursor{
		vol:             c.vol,
		slots:           append([]uint16{}, c.slots...),
		deep:            append([]string{}, c.deep...),
		frozen:          c.frozen,
		frozenRemainder: c.frozenRemainder,
	}
	if len(out.slots) < keys.MaxPathDepth {
		out.slots = append(out.slots, e.Slot)
	} else {
		out.deep = append(out.deep, name)
	}
	return out
}

// code builds the PathCode at this cursor.
func (c pathCursor) code() keys.PathCode {
	if c.frozen {
		pc := keys.PathCode{Slots: c.slots, Remainder: c.frozenRemainder}
		if len(c.deep) > 0 {
			// Children added under a deep moved directory extend the
			// frozen remainder deterministically.
			h := sha256.New()
			h.Write(pc.Remainder[:])
			for _, d := range c.deep {
				h.Write([]byte(d))
			}
			copy(pc.Remainder[:], h.Sum(nil))
		}
		return pc
	}
	return keys.NewPathCode(c.slots, c.deep)
}

// blockKey returns the key for the given block and version at this path.
func (c pathCursor) blockKey(block uint64, ver uint32) keys.Key {
	return keys.Encode(c.vol, c.code(), block, ver)
}

// origEncoding exports the encoding for rename bookkeeping.
func (c pathCursor) origEncoding() ([]uint16, [8]byte) {
	pc := c.code()
	return pc.Slots, pc.Remainder
}
