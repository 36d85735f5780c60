package sting

import (
	"fmt"

	"swarm/internal/vfs"
)

// File is an open Sting file handle.
type File struct {
	fs     *FS
	ino    uint64
	closed bool
}

var _ vfs.File = (*File)(nil)

func (f *File) inode() (*inode, error) {
	if f.closed {
		return nil, vfs.ErrClosed
	}
	if f.fs.closed {
		return nil, vfs.ErrClosed
	}
	return f.fs.loadInode(f.ino)
}

// ReadAt implements vfs.File.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, err := f.inode()
	if err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if off >= in.size {
		return 0, nil
	}
	n := len(p)
	if int64(n) > in.size-off {
		n = int(in.size - off)
	}
	bs := int64(fs.blockSize)
	read := 0
	for read < n {
		idx := uint64((off + int64(read)) / bs)
		blockOff := int((off + int64(read)) % bs)
		chunk := fs.blockSize - blockOff
		if chunk > n-read {
			chunk = n - read
		}
		if err := fs.readBlockInto(in, idx, blockOff, p[read:read+chunk]); err != nil {
			return read, err
		}
		read += chunk
	}
	fs.stats.BytesRead += int64(read)
	return read, nil
}

// readBlockInto fills dst from block idx starting at blockOff, treating
// holes and short blocks as zeros. Caller holds fs.mu.
func (fs *FS) readBlockInto(in *inode, idx uint64, blockOff int, dst []byte) error {
	for i := range dst {
		dst[i] = 0
	}
	// Dirty page wins.
	if page, ok := fs.pages[pageKey{ino: in.ino, idx: uint32(idx)}]; ok {
		copy(dst, page[blockOff:])
		return nil
	}
	b, err := in.tree.get(fs, idx)
	if err != nil {
		return err
	}
	if b.isHole() {
		return nil
	}
	if blockOff >= int(b.len) {
		return nil // reading the zero tail of a short block
	}
	want := len(dst)
	if want > int(b.len)-blockOff {
		want = int(b.len) - blockOff
	}
	var data []byte
	if fs.cache != nil {
		data, err = fs.cache.ReadBlock(b.addr, b.len, uint32(blockOff), uint32(want))
	} else {
		data, err = fs.log.Read(b.addr, uint32(blockOff), uint32(want))
	}
	if err != nil {
		return fmt.Errorf("read block %d of inode %d: %w", idx, in.ino, err)
	}
	copy(dst, data)
	return nil
}

// WriteAt implements vfs.File: data lands in the write-back page cache
// and is shipped to the log at the next flush.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	in, err := f.inode()
	if err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	if err := fs.checkSize(off, len(p)); err != nil {
		fs.mu.Unlock()
		return 0, err
	}
	bs := int64(fs.blockSize)
	written := 0
	for written < len(p) {
		pos := off + int64(written)
		idx := uint32(pos / bs)
		blockOff := int(pos % bs)
		chunk := fs.blockSize - blockOff
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		page, err := fs.dirtyPage(in, idx, chunk < fs.blockSize)
		if err != nil {
			fs.mu.Unlock()
			return written, err
		}
		copy(page[blockOff:], p[written:written+chunk])
		written += chunk
	}
	if off+int64(written) > in.size {
		in.size = off + int64(written)
	}
	fs.markDirty(in)
	fs.stats.BytesWritten += int64(written)
	needFlush := fs.dirtyBytes >= fs.dirtyMax
	var flushErr error
	if needFlush {
		flushErr = fs.flushLocked()
	}
	fs.mu.Unlock()
	if flushErr != nil {
		return written, flushErr
	}
	return written, nil
}

// checkSize rejects a write of n bytes at off, or a size (n == 0), that
// the block index cannot address. Caller holds fs.mu.
func (fs *FS) checkSize(off int64, n int) error {
	limit := int64(maxIndex) * int64(fs.blockSize)
	if off < 0 || off > limit-int64(n) {
		return fmt.Errorf("%w: offset %d + %d bytes past the %d-byte file limit", vfs.ErrInvalid, off, n, limit)
	}
	return nil
}

// dirtyPage returns the (blockSize-long) dirty page for idx, creating it
// if necessary. A page the caller will not overwrite whole is faulted
// in from the stored block first. Caller holds fs.mu.
func (fs *FS) dirtyPage(in *inode, idx uint32, fault bool) ([]byte, error) {
	k := pageKey{ino: in.ino, idx: idx}
	if page, ok := fs.pages[k]; ok {
		return page, nil
	}
	page := make([]byte, fs.blockSize)
	if fault {
		b, err := in.tree.get(fs, uint64(idx))
		if err == nil && !b.isHole() {
			var data []byte
			if data, err = fs.log.Read(b.addr, 0, b.len); err == nil {
				copy(page, data)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("fault block %d of inode %d: %w", idx, in.ino, err)
		}
	}
	fs.pages[k] = page
	fs.dirtyBytes += int64(len(page))
	return page, nil
}

// Size implements vfs.File.
func (f *File) Size() (int64, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, err := f.inode()
	if err != nil {
		return 0, err
	}
	return in.size, nil
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	in, err := f.inode()
	if err != nil {
		return err
	}
	if err := fs.checkSize(size, 0); err != nil {
		return err
	}
	return fs.truncateLocked(in, size)
}

// truncateLocked sets in's size, freeing blocks beyond it and zeroing the
// tail of the new last block so a later extension reads zeros.
func (fs *FS) truncateLocked(in *inode, size int64) error {
	if size < in.size {
		keep := fs.blocks(size)
		for k, p := range fs.pages {
			if k.ino == in.ino && uint64(k.idx) >= keep {
				fs.dirtyBytes -= int64(len(p))
				delete(fs.pages, k)
			}
		}
		var freed freeList
		err := in.tree.truncate(fs, keep, freed.add)
		if err == nil {
			err = fs.deleteBlocks(freed)
		}
		if err != nil {
			return err
		}
		// Zero the tail of the last partial block via a dirty page.
		if tail := size % int64(fs.blockSize); tail != 0 {
			page, err := fs.dirtyPage(in, uint32(keep-1), true)
			if err != nil {
				return err
			}
			clear(page[tail:])
		}
	}
	in.size = size
	fs.markDirty(in)
	return nil
}

// Sync implements vfs.File (flushes the whole file system: Sting is
// single-client, so per-file granularity buys nothing).
func (f *File) Sync() error {
	if f.closed {
		return vfs.ErrClosed
	}
	return f.fs.Sync()
}

// Close implements vfs.File.
func (f *File) Close() error {
	if f.closed {
		return vfs.ErrClosed
	}
	f.closed = true
	return nil
}
