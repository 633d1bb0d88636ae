package fs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/defragdht/d2/internal/obs/tracing"
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
}

// ensureWriter guards mutating operations.
func (v *Volume) ensureWriter() error {
	if v.priv == nil {
		return ErrReadOnly
	}
	return nil
}

// WriteFile creates or overwrites the file at path with data, updating
// the metadata chain up to the signed root.
func (v *Volume) WriteFile(ctx context.Context, path string, data []byte) error {
	if err := v.ensureWriter(); err != nil {
		return err
	}
	comps := splitPath(path)
	if len(comps) == 0 {
		return fmt.Errorf("%w: empty path", ErrIsDir)
	}
	ctx, sp := tracing.ChildSpan(ctx, "fs.write_file")
	if sp != nil {
		sp.Annotate("path", path, "bytes", len(data))
	}
	if len(data) > InlineMax {
		// The write-back window keeps the content blocks until Sync: keep
		// a private copy, as os.WriteFile leaves the caller its buffer.
		// (Inline content is copied into the inode.)
		data = bytes.Clone(data)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	err := v.writeFileLocked(ctx, comps, data)
	sp.EndErr(err)
	return err
}

func (v *Volume) writeFileLocked(ctx context.Context, comps []string, data []byte) error {
	st := v.state.Load()
	dirComps, name := comps[:len(comps)-1], comps[len(comps)-1]
	chain, err := v.walk(ctx, st, dirComps, true)
	if err != nil {
		return err
	}
	parent := &chain[len(chain)-1]
	idx := parent.find(name)

	var cur pathCursor
	var oldIno *Inode
	var oldVer uint32
	if idx >= 0 {
		e := &parent.entries[idx]
		if e.IsDir {
			return fmt.Errorf("%w: %s", ErrIsDir, name)
		}
		cur = parent.cur.child(e, name)
		m, err := v.readInode(ctx, cur.blockKey(0, e.Ver), e.Hash)
		if err != nil {
			return err
		}
		oldIno = &m.ino
		oldVer = e.Ver
	} else {
		// New file: allocate the next unused slot in this directory
		// (§4.2).
		slot, err := parent.ino.allocSlot()
		if err != nil {
			return fmt.Errorf("%w: %s", err, name)
		}
		parent.entries = append(parent.entries, DirEntry{Name: name, Slot: slot})
		idx = len(parent.entries) - 1
		cur = parent.cur.child(&parent.entries[idx], name)
	}

	var ino Inode
	v.writeContent(cur, data, oldIno, &ino)
	ver, hash := v.writeInode(cur, &ino, oldVer)
	e := &parent.entries[idx]
	e.Ver, e.Hash, e.Size = ver, hash, ino.Size
	return v.commitChain(st, chain)
}

// ReadFile returns the file's full content.
func (v *Volume) ReadFile(ctx context.Context, path string) ([]byte, error) {
	comps := splitPath(path)
	if len(comps) == 0 {
		return nil, ErrIsDir
	}
	ctx, sp := tracing.ChildSpan(ctx, "fs.read_file")
	if sp != nil {
		sp.Annotate("path", path)
	}
	data, err := v.readFile(ctx, path, comps)
	sp.EndErr(err)
	return data, err
}

// readFile is ReadFile without the tracing shell. A ReadFile of the entry
// after the previous one's in the same directory is a directory scan and
// reads the following files' content ahead (readAheadContent).
func (v *Volume) readFile(ctx context.Context, path string, comps []string) ([]byte, error) {
	st, err := v.beginRead(ctx)
	if err != nil {
		return nil, err
	}
	defer v.endRead()
	f, err := v.fileAt(ctx, st, path, comps)
	if err != nil {
		return nil, err
	}
	if v.scanned(f.dir.shared, f.idx) {
		v.readAheadContent(ctx, &f)
	}
	data, err := v.readContent(ctx, f.cur, &f.ino)
	if len(f.ino.Inline) > 0 {
		// Inline content is the cached inode's: the caller gets a copy.
		data = bytes.Clone(data)
	}
	return data, err
}

// fileRef is a resolved file: the directory holding it, its position in
// that directory's entries, its cursor and its verified inode.
type fileRef struct {
	dir *step
	idx int
	cur pathCursor
	ino Inode
}

// fileAt walks root state st to the file at comps (path names it in
// errors). An inode no cache holds is fetched with the directory's
// readahead.
func (v *Volume) fileAt(ctx context.Context, st *rootState, path string, comps []string) (fileRef, error) {
	chain, err := v.walk(ctx, st, comps[:len(comps)-1], false)
	if err != nil {
		return fileRef{}, err
	}
	parent := &chain[len(chain)-1]
	idx := parent.find(comps[len(comps)-1])
	if idx < 0 {
		return fileRef{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	e := &parent.entries[idx]
	if e.IsDir {
		return fileRef{}, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	cur := parent.cur.child(e, e.Name)
	k := cur.blockKey(0, e.Ver)
	if _, cached := v.cachedRead(k); !cached {
		v.readAhead(ctx, parent, idx, k)
	}
	m, err := v.readInode(ctx, k, e.Hash)
	if err != nil {
		return fileRef{}, err
	}
	return fileRef{dir: parent, idx: idx, cur: cur, ino: m.ino}, nil
}

// Mkdir creates a directory (parents must exist).
func (v *Volume) Mkdir(ctx context.Context, path string) error {
	if err := v.ensureWriter(); err != nil {
		return err
	}
	comps := splitPath(path)
	if len(comps) == 0 {
		return ErrExist
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	st := v.state.Load()
	dirComps, name := comps[:len(comps)-1], comps[len(comps)-1]
	chain, err := v.walk(ctx, st, dirComps, true)
	if err != nil {
		return err
	}
	parent := &chain[len(chain)-1]
	if parent.find(name) >= 0 {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	slot, err := parent.ino.allocSlot()
	if err != nil {
		return fmt.Errorf("%w: %s", err, path)
	}
	entry := DirEntry{Name: name, IsDir: true, Slot: slot}
	parent.entries = append(parent.entries, entry)
	idx := len(parent.entries) - 1
	cur := parent.cur.child(&parent.entries[idx], name)

	ino := Inode{IsDir: true, NextSlot: 1}
	ver, hash := v.writeInode(cur, &ino, 0)
	parent.entries[idx].Ver = ver
	parent.entries[idx].Hash = hash
	return v.commitChain(st, chain)
}

// MkdirAll creates a directory and any missing parents.
func (v *Volume) MkdirAll(ctx context.Context, path string) error {
	comps := splitPath(path)
	for i := 1; i <= len(comps); i++ {
		err := v.Mkdir(ctx, "/"+strings.Join(comps[:i], "/"))
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// ReadDir lists a directory.
func (v *Volume) ReadDir(ctx context.Context, path string) ([]FileInfo, error) {
	st, err := v.beginRead(ctx)
	if err != nil {
		return nil, err
	}
	defer v.endRead()
	chain, err := v.walk(ctx, st, splitPath(path), false)
	if err != nil {
		return nil, err
	}
	dir := &chain[len(chain)-1]
	out := make([]FileInfo, 0, len(dir.entries))
	for _, e := range dir.entries {
		out = append(out, FileInfo{Name: e.Name, Size: e.Size, IsDir: e.IsDir})
	}
	return out, nil
}

// Stat describes the file or directory at path.
func (v *Volume) Stat(ctx context.Context, path string) (FileInfo, error) {
	comps := splitPath(path)
	if len(comps) == 0 {
		return FileInfo{Name: "/", IsDir: true}, nil
	}
	st, err := v.beginRead(ctx)
	if err != nil {
		return FileInfo{}, err
	}
	defer v.endRead()
	chain, err := v.walk(ctx, st, comps[:len(comps)-1], false)
	if err != nil {
		return FileInfo{}, err
	}
	parent := &chain[len(chain)-1]
	idx := parent.find(comps[len(comps)-1])
	if idx < 0 {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	e := parent.entries[idx]
	return FileInfo{Name: e.Name, Size: e.Size, IsDir: e.IsDir}, nil
}

// Remove deletes a file or an empty directory, queueing removal of its
// blocks (§3: quick removal keeps deleted data from fragmenting live
// data).
func (v *Volume) Remove(ctx context.Context, path string) error {
	if err := v.ensureWriter(); err != nil {
		return err
	}
	comps := splitPath(path)
	if len(comps) == 0 {
		return ErrIsDir
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	st := v.state.Load()
	chain, err := v.walk(ctx, st, comps[:len(comps)-1], true)
	if err != nil {
		return err
	}
	parent := &chain[len(chain)-1]
	name := comps[len(comps)-1]
	idx := parent.find(name)
	if idx < 0 {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	e := parent.entries[idx]
	cur := parent.cur.child(&e, name)
	m, err := v.readInode(ctx, cur.blockKey(0, e.Ver), e.Hash)
	if err != nil {
		return err
	}
	ino := &m.ino
	if e.IsDir {
		entries, err := v.loadEntries(ctx, cur, ino)
		if err != nil {
			return err
		}
		if len(entries) > 0 {
			return fmt.Errorf("%w: %s", ErrNotEmpty, path)
		}
	}
	// Queue removal of the inode and all content blocks.
	v.removeBlock(cur.blockKey(0, e.Ver))
	for i, ver := range ino.BlockVers {
		v.removeBlock(cur.blockKey(uint64(i+1), ver))
	}
	parent.entries = append(parent.entries[:idx], parent.entries[idx+1:]...)
	return v.commitChain(st, chain)
}

// Rename moves a file or directory. The moved object's blocks keep their
// original keys; the new parent entry records the original encoding
// (§4.2: renamed files simply point to their original location).
func (v *Volume) Rename(ctx context.Context, oldPath, newPath string) error {
	if err := v.ensureWriter(); err != nil {
		return err
	}
	oldComps := splitPath(oldPath)
	newComps := splitPath(newPath)
	if len(oldComps) == 0 || len(newComps) == 0 {
		return ErrIsDir
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	st := v.state.Load()

	// Validate the destination before touching the source, so a failed
	// rename never unlinks anything.
	newName := newComps[len(newComps)-1]
	preChain, err := v.walk(ctx, st, newComps[:len(newComps)-1], false)
	if err != nil {
		return err
	}
	if preChain[len(preChain)-1].find(newName) >= 0 {
		return fmt.Errorf("%w: %s", ErrExist, newPath)
	}

	oldChain, err := v.walk(ctx, st, oldComps[:len(oldComps)-1], true)
	if err != nil {
		return err
	}
	oldParent := &oldChain[len(oldChain)-1]
	oldName := oldComps[len(oldComps)-1]
	oldIdx := oldParent.find(oldName)
	if oldIdx < 0 {
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	moved := oldParent.entries[oldIdx]
	movedCur := oldParent.cur.child(&moved, oldName)

	// Remove from the old parent and commit that chain first.
	oldParent.entries = append(oldParent.entries[:oldIdx], oldParent.entries[oldIdx+1:]...)
	if err := v.commitChain(st, oldChain); err != nil {
		return err
	}

	// Insert into the new parent with the original key encoding frozen,
	// walking from the root the removal just published.
	st = v.state.Load()
	newChain, err := v.walk(ctx, st, newComps[:len(newComps)-1], true)
	if err != nil {
		return err
	}
	newParent := &newChain[len(newChain)-1]
	slots, remainder := movedCur.origEncoding()
	entry := DirEntry{
		Name:          newName,
		IsDir:         moved.IsDir,
		Size:          moved.Size,
		Slot:          0, // moved entries consume no slot; keys stay put
		Ver:           moved.Ver,
		Hash:          moved.Hash,
		Moved:         true,
		OrigSlots:     slots,
		OrigRemainder: remainder,
	}
	newParent.entries = append(newParent.entries, entry)
	return v.commitChain(st, newChain)
}
