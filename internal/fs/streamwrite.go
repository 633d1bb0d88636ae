package fs

import (
	"context"
	"fmt"
	"io"

	"github.com/defragdht/d2/internal/obs/tracing"
)

// WriteStream opens path for streaming ingest and returns an
// io.WriteCloser. The file is created (or truncated) immediately — the
// open commits an empty inode so the entry and its key range exist — and
// each full data block is written straight to the DHT as it fills, so
// writer memory stays O(BlockSize) regardless of file size. Close
// commits the final inode (size, block versions, content hashes) up the
// metadata chain; until then readers see the empty file. An abandoned
// writer (no Close) leaves the file empty.
func (v *Volume) WriteStream(ctx context.Context, path string) (io.WriteCloser, error) {
	if err := v.ensureWriter(); err != nil {
		return nil, err
	}
	comps := splitPath(path)
	if len(comps) == 0 {
		return nil, fmt.Errorf("%w: empty path", ErrIsDir)
	}
	sctx, sp := tracing.ChildSpan(ctx, "fs.write_stream")
	if sp != nil {
		sp.Annotate("path", path)
	}
	v.mu.Lock()
	err := v.writeFileLocked(sctx, comps, nil)
	v.mu.Unlock()
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	cur, _, err := v.resolveFile(sctx, path, comps)
	if err != nil {
		sp.EndErr(err)
		return nil, err
	}
	return &streamWriter{
		v:     v,
		ctx:   sctx,
		sp:    sp,
		comps: comps,
		cur:   cur,
		buf:   make([]byte, 0, BlockSize),
	}, nil
}

// streamWriter accumulates BlockSize chunks and writes each full block
// directly to the DHT under the file's next content key.
type streamWriter struct {
	v     *Volume
	ctx   context.Context
	sp    *tracing.ActiveSpan
	comps []string
	cur   pathCursor

	buf    []byte // partial tail block, cap BlockSize
	ino    Inode  // accumulates Size/BlockVers/BlockHashes
	closed bool
	err    error
}

func (w *streamWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.closed {
		return 0, fmt.Errorf("fs: stream: write after Close")
	}
	total := 0
	for len(p) > 0 {
		room := BlockSize - len(w.buf)
		n := len(p)
		if n > room {
			n = room
		}
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
		if len(w.buf) == BlockSize {
			if err := w.flushBlock(); err != nil {
				w.err = err
				return total, err
			}
		}
	}
	w.ino.Size += int64(total)
	return total, nil
}

// flushBlock ships the buffered block to the DHT. The data is copied:
// stores on the in-process transport retain the put slice by reference,
// so the writer's scratch buffer cannot be reused for the payload.
func (w *streamWriter) flushBlock() error {
	data := append(make([]byte, 0, len(w.buf)), w.buf...)
	ver := versionHash(data)
	idx := uint64(len(w.ino.BlockVers) + 1)
	if err := w.v.svc.Put(w.ctx, w.cur.blockKey(idx, ver), data); err != nil {
		return fmt.Errorf("fs: stream put block %d: %w", idx, err)
	}
	w.v.metrics.blocksWritten.Inc()
	w.v.metrics.bytesWritten.Add(uint64(len(data)))
	w.ino.BlockVers = append(w.ino.BlockVers, ver)
	w.ino.BlockHashes = append(w.ino.BlockHashes, contentHash(data))
	w.buf = w.buf[:0]
	return nil
}

// Close flushes the tail and commits the file's metadata chain. Like
// WriteFile, the metadata lands in the write-back cache; call Sync to
// publish to other readers immediately.
func (w *streamWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		w.sp.EndErr(w.err)
		return w.err
	}
	if len(w.ino.BlockVers) == 0 && len(w.buf) <= InlineMax {
		// Whole content fits inline in the metadata block (§3).
		w.ino.Inline = append([]byte(nil), w.buf...)
	} else if len(w.buf) > 0 {
		if err := w.flushBlock(); err != nil {
			w.err = err
			w.sp.EndErr(err)
			return err
		}
	}
	w.err = w.commit()
	if w.err != nil {
		w.sp.EndErr(w.err)
		return w.err
	}
	w.sp.End()
	return nil
}

// commit rewrites the file's inode with the streamed content layout and
// updates the metadata chain to the signed root.
func (w *streamWriter) commit() error {
	v := w.v
	v.mu.Lock()
	defer v.mu.Unlock()
	root := v.root
	dirComps, name := w.comps[:len(w.comps)-1], w.comps[len(w.comps)-1]
	chain, err := v.walk(w.ctx, root, dirComps)
	if err != nil {
		return err
	}
	parent := &chain[len(chain)-1]
	idx := findEntry(parent.entries, name)
	if idx < 0 {
		return fmt.Errorf("%w: %s (removed during stream write)", ErrNotExist, name)
	}
	e := &parent.entries[idx]
	if e.IsDir {
		return fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	ver, hash, err := v.writeInode(w.cur, &w.ino, e.Ver)
	if err != nil {
		return err
	}
	e.Ver, e.Hash, e.Size = ver, hash, w.ino.Size
	return v.commitChain(w.ctx, root, chain)
}
