package fs

import (
	"context"
	"fmt"

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
	v.mu.Lock()
	defer v.mu.Unlock()
	err := v.writeFileLocked(ctx, comps, data)
	sp.EndErr(err)
	return err
}

func (v *Volume) writeFileLocked(ctx context.Context, comps []string, data []byte) error {
	root := v.root
	dirComps, name := comps[:len(comps)-1], comps[len(comps)-1]
	chain, err := v.walk(ctx, root, dirComps)
	if err != nil {
		return err
	}
	parent := &chain[len(chain)-1]
	idx := findEntry(parent.entries, name)

	var cur pathCursor
	var oldIno *Inode
	var oldVer uint32
	if idx >= 0 {
		e := &parent.entries[idx]
		if e.IsDir {
			return fmt.Errorf("%w: %s", ErrIsDir, name)
		}
		cur = parent.cur.child(e, name)
		ino, err := v.readInode(ctx, cur, e.Ver, e.Hash)
		if err != nil {
			return err
		}
		oldIno = &ino
		oldVer = e.Ver
	} else {
		// New file: allocate the next unused slot in this directory
		// (§4.2).
		slot := parent.ino.NextSlot
		if slot == 0 {
			slot = 1
		}
		parent.ino.NextSlot = slot + 1
		parent.entries = append(parent.entries, DirEntry{Name: name, Slot: slot})
		idx = len(parent.entries) - 1
		cur = parent.cur.child(&parent.entries[idx], name)
	}

	var ino Inode
	v.writeContent(cur, data, oldIno, &ino)
	ver, hash, err := v.writeInode(cur, &ino, oldVer)
	if err != nil {
		return err
	}
	e := &parent.entries[idx]
	e.Ver, e.Hash, e.Size = ver, hash, ino.Size
	return v.commitChain(ctx, root, chain)
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

// readFile is ReadFile without the tracing shell.
func (v *Volume) readFile(ctx context.Context, path string, comps []string) ([]byte, error) {
	root, err := v.currentRoot(ctx)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	cur, ino, err := v.fileAt(ctx, root, path, comps)
	if err != nil {
		return nil, err
	}
	return v.readContent(ctx, cur, &ino)
}

// fileAt walks to the file at comps (path names it in errors) and returns
// its cursor and verified inode. v.mu is held.
func (v *Volume) fileAt(ctx context.Context, root *RootBlock, path string, comps []string) (pathCursor, Inode, error) {
	chain, err := v.walk(ctx, root, comps[:len(comps)-1])
	if err != nil {
		return pathCursor{}, Inode{}, err
	}
	parent := &chain[len(chain)-1]
	idx := findEntry(parent.entries, comps[len(comps)-1])
	if idx < 0 {
		return pathCursor{}, Inode{}, fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	e := &parent.entries[idx]
	if e.IsDir {
		return pathCursor{}, Inode{}, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	cur := parent.cur.child(e, e.Name)
	ino, err := v.readInode(ctx, cur, e.Ver, e.Hash)
	return cur, ino, err
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
	root := v.root
	dirComps, name := comps[:len(comps)-1], comps[len(comps)-1]
	chain, err := v.walk(ctx, root, dirComps)
	if err != nil {
		return err
	}
	parent := &chain[len(chain)-1]
	if findEntry(parent.entries, name) >= 0 {
		return fmt.Errorf("%w: %s", ErrExist, path)
	}
	slot := parent.ino.NextSlot
	if slot == 0 {
		slot = 1
	}
	parent.ino.NextSlot = slot + 1
	entry := DirEntry{Name: name, IsDir: true, Slot: slot}
	parent.entries = append(parent.entries, entry)
	idx := len(parent.entries) - 1
	cur := parent.cur.child(&parent.entries[idx], name)

	ino := Inode{IsDir: true, NextSlot: 1}
	ver, hash, err := v.writeInode(cur, &ino, 0)
	if err != nil {
		return err
	}
	parent.entries[idx].Ver = ver
	parent.entries[idx].Hash = hash
	return v.commitChain(ctx, root, chain)
}

// MkdirAll creates a directory and any missing parents.
func (v *Volume) MkdirAll(ctx context.Context, path string) error {
	comps := splitPath(path)
	for i := 1; i <= len(comps); i++ {
		err := v.Mkdir(ctx, "/"+joinPath(comps[:i]))
		if err != nil && !isExist(err) {
			return err
		}
	}
	return nil
}

func joinPath(comps []string) string {
	out := ""
	for i, c := range comps {
		if i > 0 {
			out += "/"
		}
		out += c
	}
	return out
}

func isExist(err error) bool {
	for err != nil {
		if err == ErrExist {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// ReadDir lists a directory.
func (v *Volume) ReadDir(ctx context.Context, path string) ([]FileInfo, error) {
	root, err := v.currentRoot(ctx)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	chain, err := v.walk(ctx, root, splitPath(path))
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
	root, err := v.currentRoot(ctx)
	if err != nil {
		return FileInfo{}, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	chain, err := v.walk(ctx, root, comps[:len(comps)-1])
	if err != nil {
		return FileInfo{}, err
	}
	parent := &chain[len(chain)-1]
	idx := findEntry(parent.entries, comps[len(comps)-1])
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
	root := v.root
	chain, err := v.walk(ctx, root, comps[:len(comps)-1])
	if err != nil {
		return err
	}
	parent := &chain[len(chain)-1]
	name := comps[len(comps)-1]
	idx := findEntry(parent.entries, name)
	if idx < 0 {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	e := parent.entries[idx]
	cur := parent.cur.child(&e, name)
	ino, err := v.readInode(ctx, cur, e.Ver, e.Hash)
	if err != nil {
		return err
	}
	if e.IsDir {
		entries, err := v.loadEntries(ctx, cur, &ino)
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
	return v.commitChain(ctx, root, chain)
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
	root := v.root

	// Validate the destination before touching the source, so a failed
	// rename never unlinks anything.
	newName := newComps[len(newComps)-1]
	preChain, err := v.walk(ctx, root, newComps[:len(newComps)-1])
	if err != nil {
		return err
	}
	if findEntry(preChain[len(preChain)-1].entries, newName) >= 0 {
		return fmt.Errorf("%w: %s", ErrExist, newPath)
	}

	oldChain, err := v.walk(ctx, root, oldComps[:len(oldComps)-1])
	if err != nil {
		return err
	}
	oldParent := &oldChain[len(oldChain)-1]
	oldName := oldComps[len(oldComps)-1]
	oldIdx := findEntry(oldParent.entries, oldName)
	if oldIdx < 0 {
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	moved := oldParent.entries[oldIdx]
	movedCur := oldParent.cur.child(&moved, oldName)

	// Remove from the old parent and commit that chain first.
	oldParent.entries = append(oldParent.entries[:oldIdx], oldParent.entries[oldIdx+1:]...)
	if err := v.commitChain(ctx, root, oldChain); err != nil {
		return err
	}

	// Insert into the new parent with the original key encoding frozen.
	newChain, err := v.walk(ctx, root, newComps[:len(newComps)-1])
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
	return v.commitChain(ctx, root, newChain)
}
