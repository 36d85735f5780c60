package sting

import (
	"fmt"

	"swarm/internal/core"
	"swarm/internal/wire"
)

// A ptree maps a dense index space (a file's block numbers, a
// directory's bucket numbers, the inode numbers of the inode map) to
// block pointers. It is the Sprite LFS pointer tree with fixed-size map
// blocks: the root's fanout slots live inline in the owner (the inode or
// the checkpoint); once the index outgrows them, the root's contents move
// into a map block and the tree grows a level. A Sync rewrites only the
// map blocks on the paths it dirtied.
//
// Levels: a level-1 node holds leaf pointers (data, bucket or inode
// blocks); a level-L node holds pointers to level L−1 map blocks. The
// root is a node of level depth+1. A node is named by (level, pos), pos
// being its index among the level's nodes; the name does not change when
// the tree grows or shrinks, so it is what block hints carry.

const (
	// mapBlockSize is the size of every map block, and the target size
	// of a directory bucket. Scattered overwrites dirty a leaf each, so
	// it sets what a Sync ships: 1 KB shipped less than 4 KB on the
	// mixed benchmark (DESIGN.md §3.15).
	mapBlockSize = 1024
	ptrSize      = 16
	fanout       = mapBlockSize / ptrSize
	// maxIndex bounds every tree's index space: file block numbers are
	// 32-bit, and inode numbers are allocated below it.
	maxIndex = uint64(1) << 32
)

// maxDepth is the depth at which a tree covers maxIndex leaves.
var maxDepth = func() int {
	d := 0
	for cover(d+1) < maxIndex {
		d++
	}
	return d
}()

// cover returns the number of leaf slots under one level-L node.
func cover(level int) uint64 {
	c := uint64(1)
	for i := 0; i < level; i++ {
		c *= fanout
	}
	return c
}

// node is a map block, or a tree's inline root. kids caches the loaded
// children of a level ≥ 2 node; a kid whose slot holds no address yet
// was created in memory and is written at the next flush.
type node struct {
	ptrs  [fanout]blockPtr
	kids  []*node
	dirty bool
}

func (n *node) empty() bool {
	for i := range n.ptrs {
		if !n.ptrs[i].isHole() || (n.kids != nil && n.kids[i] != nil) {
			return false
		}
	}
	return true
}

func (n *node) encode() []byte {
	e := wire.NewEncoder(mapBlockSize)
	for _, p := range n.ptrs {
		encodePtr(e, p)
	}
	return e.Bytes()
}

func decodeNode(p []byte) (*node, error) {
	if len(p) != mapBlockSize {
		return nil, fmt.Errorf("sting: map block of %d bytes, want %d", len(p), mapBlockSize)
	}
	d := wire.NewDecoder(p)
	n := &node{}
	for i := range n.ptrs {
		n.ptrs[i] = decodePtr(d)
	}
	return n, d.Err()
}

func encodePtr(e *wire.Encoder, p blockPtr) {
	e.U64(uint64(p.addr.FID))
	e.U32(p.addr.Off)
	e.U32(p.len)
}

func decodePtr(d *wire.Decoder) blockPtr {
	return blockPtr{addr: core.BlockAddr{FID: wire.FID(d.U64()), Off: d.U32()}, len: d.U32()}
}

type ptree struct {
	depth int
	root  node
}

// encodeRoot writes the depth and the root's slots, trailing holes
// trimmed, so a small file's inode stays small.
func (t *ptree) encodeRoot(e *wire.Encoder) {
	n := fanout
	for n > 0 && t.root.ptrs[n-1].isHole() {
		n--
	}
	e.U8(uint8(t.depth))
	e.U16(uint16(n))
	for _, p := range t.root.ptrs[:n] {
		encodePtr(e, p)
	}
}

func decodeRoot(d *wire.Decoder) (ptree, error) {
	t := ptree{depth: int(d.U8())}
	n := int(d.U16())
	if d.Err() == nil && (t.depth > maxDepth || n > fanout) {
		return ptree{}, fmt.Errorf("sting: tree root depth %d with %d slots", t.depth, n)
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		t.root.ptrs[i] = decodePtr(d)
	}
	return t, d.Err()
}

// child returns n's child in slot i, loading it if needed; nil is a hole.
func (n *node) child(fs *FS, i int) (*node, error) {
	if n.kids == nil {
		n.kids = make([]*node, fanout)
	}
	if k := n.kids[i]; k != nil || n.ptrs[i].isHole() {
		return k, nil
	}
	k, err := fs.readNode(n.ptrs[i])
	if err != nil {
		return nil, err
	}
	n.kids[i] = k
	return k, nil
}

// get returns the leaf pointer at idx (a hole if none).
func (t *ptree) get(fs *FS, idx uint64) (blockPtr, error) {
	if idx >= cover(t.depth+1) {
		return blockPtr{}, nil
	}
	n := &t.root
	for level := t.depth + 1; level > 1; level-- {
		k, err := n.child(fs, int(idx/cover(level-1)%fanout))
		if err != nil || k == nil {
			return blockPtr{}, err
		}
		n = k
	}
	return n.ptrs[idx%fanout], nil
}

// set stores p at idx, growing the tree and creating map blocks as
// needed, and marks the path dirty. It returns the pointer it replaced.
func (t *ptree) set(fs *FS, idx uint64, p blockPtr) (blockPtr, error) {
	if idx >= maxIndex {
		return blockPtr{}, fmt.Errorf("sting: tree index %d out of range", idx)
	}
	for idx >= cover(t.depth+1) {
		if p.isHole() {
			return blockPtr{}, nil
		}
		t.grow()
	}
	n := &t.root
	for level := t.depth + 1; level > 1; level-- {
		i := int(idx / cover(level-1) % fanout)
		k, err := n.child(fs, i)
		if err != nil {
			return blockPtr{}, err
		}
		if k == nil {
			if p.isHole() {
				return blockPtr{}, nil
			}
			k = &node{}
			n.kids[i] = k
		}
		k.dirty = true
		n = k
	}
	old := n.ptrs[idx%fanout]
	n.ptrs[idx%fanout] = p
	return old, nil
}

// grow adds a level: the root's contents become an unwritten map block
// in the new root's slot 0.
func (t *ptree) grow() {
	if !t.root.empty() {
		moved := t.root
		moved.dirty = true
		t.root = node{kids: make([]*node, fanout)}
		t.root.kids[0] = &moved
	}
	t.depth++
}

// locate walks to the parent of node (level, pos), where level 0 names
// the leaf pointer at index pos, and returns the parent and the slot.
// Nothing is created: a missing path returns a nil parent.
func (t *ptree) locate(fs *FS, level int, pos uint64) (*node, int, []*node, error) {
	if level > t.depth || pos >= cover(t.depth+1-level) {
		return nil, 0, nil, nil
	}
	n := &t.root
	path := []*node{}
	for l := t.depth + 1; l > level+1; l-- {
		k, err := n.child(fs, int(pos/cover(l-1-level)%fanout))
		if err != nil || k == nil {
			return nil, 0, nil, err
		}
		path = append(path, k)
		n = k
	}
	return n, int(pos % fanout), path, nil
}

// relink points the slot of node (level, pos) at p, if it currently
// points at want (or unconditionally if force), and marks the path
// dirty. A loaded copy of the node is kept: relinking moves a block, it
// does not change it. It reports whether the slot changed.
func (t *ptree) relink(fs *FS, level int, pos uint64, p blockPtr, want core.BlockAddr, force bool) (bool, error) {
	parent, i, path, err := t.locate(fs, level, pos)
	if err != nil || parent == nil || (!force && parent.ptrs[i].addr != want) {
		return false, err
	}
	parent.ptrs[i] = p
	for _, n := range path {
		n.dirty = true
	}
	return true, nil
}

// live reports whether node (level, pos) is stored at addr.
func (t *ptree) live(fs *FS, level int, pos uint64, addr core.BlockAddr) (bool, error) {
	parent, i, _, err := t.locate(fs, level, pos)
	if err != nil || parent == nil {
		return false, err
	}
	return parent.ptrs[i].addr == addr, nil
}

// flush writes every dirty map block bottom-up through put, which
// appends a block for node (level, pos) and returns its pointer; the
// replaced blocks go to free. Empty nodes are dropped rather than
// written.
func (t *ptree) flush(put func(level int, pos uint64, data []byte) (blockPtr, error), free func(blockPtr)) error {
	return flushKids(&t.root, t.depth+1, 0, put, free)
}

func flushKids(n *node, level int, pos uint64, put func(int, uint64, []byte) (blockPtr, error), free func(blockPtr)) error {
	if level < 2 || n.kids == nil {
		return nil
	}
	for i, k := range n.kids {
		if k == nil || !k.dirty {
			continue
		}
		kpos := pos*fanout + uint64(i)
		if err := flushKids(k, level-1, kpos, put, free); err != nil {
			return err
		}
		old := n.ptrs[i]
		if k.empty() {
			n.ptrs[i], n.kids[i] = blockPtr{}, nil
		} else {
			p, err := put(level-1, kpos, k.encode())
			if err != nil {
				return err
			}
			n.ptrs[i] = p
			k.dirty = false
		}
		if !old.isHole() {
			free(old)
		}
	}
	return nil
}

// truncate drops every leaf at index n or beyond, handing each dropped
// leaf and map block to free, and lowers the tree while what is left
// fits a shallower one. Map blocks under the cut are loaded to find
// their leaves.
func (t *ptree) truncate(fs *FS, n uint64, free func(blockPtr)) error {
	if n >= cover(t.depth+1) {
		return nil
	}
	if _, err := cut(fs, &t.root, t.depth+1, 0, n, free); err != nil {
		return err
	}
	for t.depth > 0 && n <= cover(t.depth) {
		k, err := t.root.child(fs, 0)
		if err != nil {
			return err
		}
		if old := t.root.ptrs[0]; !old.isHole() {
			free(old)
		}
		if k == nil {
			t.root = node{}
		} else {
			t.root = *k
		}
		t.depth--
	}
	return nil
}

// cut drops the leaves at index n or beyond under nd, which covers the
// leaves from first on, and reports whether nd changed.
func cut(fs *FS, nd *node, level int, first, n uint64, free func(blockPtr)) (bool, error) {
	span := cover(level - 1)
	changed := false
	for i := 0; i < fanout; i++ {
		lo := first + uint64(i)*span
		if lo+span <= n {
			continue
		}
		if level == 1 {
			if !nd.ptrs[i].isHole() {
				free(nd.ptrs[i])
				nd.ptrs[i] = blockPtr{}
				changed = true
			}
			continue
		}
		k, err := nd.child(fs, i)
		if err != nil {
			return changed, err
		}
		if k == nil {
			continue
		}
		kchanged, err := cut(fs, k, level-1, lo, n, free)
		if err != nil {
			return changed, err
		}
		if lo >= n {
			if !nd.ptrs[i].isHole() {
				free(nd.ptrs[i])
			}
			nd.ptrs[i], nd.kids[i] = blockPtr{}, nil
			changed = true
		} else if kchanged {
			k.dirty = true
			changed = true
		}
	}
	return changed, nil
}
