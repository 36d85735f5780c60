package sting

import (
	"fmt"
	"sort"

	"swarm/internal/vfs"
)

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, vfs.ErrClosed
	}
	dir, name, err := fs.resolveParent(path)
	if err != nil {
		return nil, err
	}
	ent, ok, err := fs.lookup(dir, name)
	if err != nil {
		return nil, err
	}
	if ok {
		in, err := fs.loadInode(ent.ino)
		if err != nil {
			return nil, err
		}
		if in.isDir() {
			return nil, fmt.Errorf("%w: %s", vfs.ErrIsDir, path)
		}
		if err := fs.truncateLocked(in, 0); err != nil {
			return nil, err
		}
		return &File{fs: fs, ino: in.ino}, nil
	}
	ino, err := fs.allocIno()
	if err != nil {
		return nil, err
	}
	if err := fs.link(dir, name, dirEnt{ino: ino, mode: vfs.ModeFile}); err != nil {
		return nil, err
	}
	in := newFileInode(ino, fs.now())
	fs.inodes[ino] = in
	fs.markDirty(in)
	fs.markDirty(dir)
	return &File{fs: fs, ino: ino}, nil
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string) (vfs.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, vfs.ErrClosed
	}
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return nil, err
	}
	in, err := fs.resolve(parts)
	if err != nil {
		return nil, err
	}
	if in.isDir() {
		return nil, fmt.Errorf("%w: %s", vfs.ErrIsDir, path)
	}
	return &File{fs: fs, ino: in.ino}, nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return vfs.ErrClosed
	}
	dir, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	_, exists, err := fs.lookup(dir, name)
	if err != nil {
		return err
	}
	if exists {
		return fmt.Errorf("%w: %s", vfs.ErrExist, path)
	}
	ino, err := fs.allocIno()
	if err != nil {
		return err
	}
	if err := fs.link(dir, name, dirEnt{ino: ino, mode: vfs.ModeDir}); err != nil {
		return err
	}
	in := newDirInode(ino, fs.now())
	fs.inodes[ino] = in
	fs.markDirty(in)
	dir.nlink++
	fs.markDirty(dir)
	return nil
}

// Rmdir implements vfs.FileSystem.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return vfs.ErrClosed
	}
	dir, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ent, ok, err := fs.lookup(dir, name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, path)
	}
	child, err := fs.loadInode(ent.ino)
	if err != nil {
		return err
	}
	if !child.isDir() {
		return fmt.Errorf("%w: %s", vfs.ErrNotDir, path)
	}
	if child.nents != 0 {
		return fmt.Errorf("%w: %s", vfs.ErrNotEmpty, path)
	}
	if err := fs.unlinkName(dir, name); err != nil {
		return err
	}
	dir.nlink--
	fs.markDirty(dir)
	return fs.removeInodeLocked(child)
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return vfs.ErrClosed
	}
	dir, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ent, ok, err := fs.lookup(dir, name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, path)
	}
	child, err := fs.loadInode(ent.ino)
	if err != nil {
		return err
	}
	if child.isDir() {
		return fmt.Errorf("%w: %s", vfs.ErrIsDir, path)
	}
	if err := fs.unlinkName(dir, name); err != nil {
		return err
	}
	fs.markDirty(dir)
	return fs.removeInodeLocked(child)
}

// removeInodeLocked frees an inode: its data and map blocks, its inode
// block and its inode-map slot, and queues an unlink record for the
// next flush so replay removes it too.
func (fs *FS) removeInodeLocked(in *inode) error {
	for k, p := range fs.pages {
		if k.ino == in.ino {
			fs.dirtyBytes -= int64(len(p))
			delete(fs.pages, k)
		}
	}
	var freed freeList
	if err := in.tree.truncate(fs, 0, freed.add); err != nil {
		return err
	}
	old, err := fs.imap.set(fs, in.ino, blockPtr{})
	if err != nil {
		return err
	}
	freed.add(old)
	if err := fs.deleteBlocks(freed); err != nil {
		return err
	}
	delete(fs.inodes, in.ino)
	delete(fs.dirtyIno, in.ino)
	fs.unlinked = append(fs.unlinked, in.ino)
	return nil
}

// Rename implements vfs.FileSystem.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return vfs.ErrClosed
	}
	oldDir, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return err
	}
	ent, ok, err := fs.lookup(oldDir, oldName)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", vfs.ErrNotExist, oldPath)
	}
	newDir, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	if newDir == oldDir && newName == oldName {
		return nil
	}
	existing, ok, err := fs.lookup(newDir, newName)
	if err != nil {
		return err
	}
	if ok {
		// Replacing: only file-over-file is allowed.
		target, err := fs.loadInode(existing.ino)
		if err != nil {
			return err
		}
		src, err := fs.loadInode(ent.ino)
		if err != nil {
			return err
		}
		if target.isDir() || src.isDir() {
			return fmt.Errorf("%w: %s", vfs.ErrExist, newPath)
		}
		if err := fs.removeInodeLocked(target); err != nil {
			return err
		}
	}
	if err := fs.unlinkName(oldDir, oldName); err != nil {
		return err
	}
	if err := fs.link(newDir, newName, ent); err != nil {
		return err
	}
	if ent.mode == vfs.ModeDir && oldDir.ino != newDir.ino {
		oldDir.nlink--
		newDir.nlink++
	}
	fs.markDirty(oldDir)
	fs.markDirty(newDir)
	return nil
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return vfs.FileInfo{}, vfs.ErrClosed
	}
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	in, err := fs.resolve(parts)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	return vfs.FileInfo{
		Name:  name,
		Ino:   in.ino,
		Size:  in.size,
		Mode:  in.mode,
		Nlink: in.nlink,
		MTime: in.mtime,
	}, nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, vfs.ErrClosed
	}
	parts, err := vfs.SplitPath(path)
	if err != nil {
		return nil, err
	}
	in, err := fs.resolve(parts)
	if err != nil {
		return nil, err
	}
	if !in.isDir() {
		return nil, fmt.Errorf("%w: %s", vfs.ErrNotDir, path)
	}
	ents, err := fs.allEntries(in)
	if err != nil {
		return nil, err
	}
	out := make([]vfs.DirEntry, 0, len(ents))
	for name, ent := range ents {
		out = append(out, vfs.DirEntry{Name: name, Ino: ent.ino, Mode: ent.mode})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
