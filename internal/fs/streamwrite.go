package fs

import (
	"context"
	"fmt"
	"io"

	"github.com/defragdht/d2/internal/keys"
	"github.com/defragdht/d2/internal/obs/tracing"
)

// WriteStream opens path for streaming ingest and returns an
// io.WriteCloser. The file is created (or truncated) immediately — the
// open commits an empty inode so the entry and its key range exist — and
// data blocks go straight to the DHT in batches of streamBatchBlocks: one
// batch fills while the previous one is in flight, so writer memory stays
// at two batches (256 KB) regardless of file size. Close commits the
// final inode (size, block versions, content hashes) up the metadata
// chain; until then readers see the empty file. An abandoned writer (no
// Close) leaves the file empty.
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
	}, nil
}

// streamBatchBlocks is the data blocks a stream writer ships per batch:
// one read segment (16 × 8 KB = 128 KB), which is also the per-RPC cap of
// the live client's PutMany, so a batch is one RPC, one WAL append and
// one fsync per replica.
const streamBatchBlocks = SegmentBlocks

// streamWriter cuts the stream into BlockSize blocks, collects them into
// batches, and ships each full batch to the DHT in the background while
// the next one fills.
type streamWriter struct {
	v     *Volume
	ctx   context.Context
	sp    *tracing.ActiveSpan
	comps []string
	cur   pathCursor

	// The batch being filled. buf is allocated per batch and never
	// reused: its blocks are handed to the block service, and stores on
	// the in-process transport keep them by reference.
	buf   []byte
	start int // offset in buf of the block being filled
	keys  []keys.Key
	data  [][]byte

	inflight chan error // result of the batch in flight, nil when none

	ino    Inode // accumulates Size/BlockVers/BlockHashes
	closed bool
	err    error // sticky: the first failed batch fails every later call
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
		if w.buf == nil {
			w.buf = make([]byte, 0, streamBatchBlocks*BlockSize)
		}
		n := min(len(p), BlockSize-(len(w.buf)-w.start))
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
		total += n
		w.ino.Size += int64(n)
		if len(w.buf)-w.start == BlockSize {
			w.sealBlock()
			if len(w.keys) == streamBatchBlocks {
				if err := w.ship(); err != nil {
					return total, err
				}
			}
		}
	}
	return total, nil
}

// sealBlock turns the bytes buffered since the last block boundary into
// the file's next content block.
func (w *streamWriter) sealBlock() {
	data := w.buf[w.start:len(w.buf):len(w.buf)]
	w.start = len(w.buf)
	ver := versionHash(data)
	w.ino.BlockVers = append(w.ino.BlockVers, ver)
	w.ino.BlockHashes = append(w.ino.BlockHashes, contentHash(data))
	w.keys = append(w.keys, w.cur.blockKey(uint64(len(w.ino.BlockVers)), ver))
	w.data = append(w.data, data)
	w.v.metrics.blocksWritten.Inc()
	w.v.metrics.bytesWritten.Add(uint64(len(data)))
}

// ship waits for the batch in flight, then sends the filled one in the
// background and starts a new one.
func (w *streamWriter) ship() error {
	if err := w.drain(); err != nil {
		return err
	}
	if len(w.keys) == 0 {
		return nil
	}
	done := make(chan error, 1) // buffered: an abandoned writer leaks no goroutine
	ks, data := w.keys, w.data
	go func() { done <- w.v.shipBlocks(w.ctx, ks, data) }()
	w.inflight = done
	w.buf, w.start, w.keys, w.data = nil, 0, nil, nil
	return nil
}

// drain waits for the batch in flight and makes its failure sticky.
func (w *streamWriter) drain() error {
	if w.inflight != nil {
		if err := <-w.inflight; err != nil && w.err == nil {
			w.err = fmt.Errorf("fs: stream write: %w", err)
		}
		w.inflight = nil
	}
	return w.err
}

// Close ships the tail, waits for every batch, and commits the file's
// metadata chain. Like WriteFile, the metadata lands in the write-back
// cache; call Sync to publish to other readers immediately.
func (w *streamWriter) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil {
		w.err = w.finish()
	} else {
		_ = w.drain() // nothing to report beyond the sticky error
	}
	w.sp.EndErr(w.err)
	return w.err
}

// finish is Close's success path.
func (w *streamWriter) finish() error {
	if len(w.ino.BlockVers) == 0 && len(w.buf) <= InlineMax {
		// Whole content fits inline in the metadata block (§3).
		w.ino.Inline = append([]byte(nil), w.buf...)
	} else {
		if len(w.buf) > w.start {
			w.sealBlock()
		}
		if err := w.ship(); err != nil {
			return err
		}
	}
	if err := w.drain(); err != nil {
		return err
	}
	return w.commit()
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
