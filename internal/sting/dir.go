package sting

import (
	"fmt"
	"sort"

	"swarm/internal/vfs"
	"swarm/internal/wire"
)

// A directory keeps its entries inline in the inode while they fit one
// map block. Past that they are hashed by name into nb buckets (a power
// of two), each stored as a leaf of the directory's pointer tree, so a
// create or unlink rewrites one bucket, not the whole directory. When a
// bucket outgrows a map block the table doubles and every entry is
// rehashed, which amortizes to a constant per entry.

// maxBuckets bounds a directory's hash table; past it a bucket may
// exceed a map block.
const maxBuckets = 1 << 24

type bucket struct {
	ents  map[string]dirEnt
	bytes int // encoded size
	dirty bool
}

func newBucket() *bucket { return &bucket{ents: make(map[string]dirEnt), bytes: 4} }

func entSize(name string) int { return 4 + len(name) + 9 }

func (b *bucket) put(name string, ent dirEnt) {
	if _, ok := b.ents[name]; !ok {
		b.bytes += entSize(name)
	}
	b.ents[name] = ent
	b.dirty = true
}

func (b *bucket) names() []string {
	out := make([]string, 0, len(b.ents))
	for name := range b.ents {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (b *bucket) encodeTo(e *wire.Encoder) {
	e.U32(uint32(len(b.ents)))
	for _, name := range b.names() {
		ent := b.ents[name]
		e.String32(name)
		e.U64(ent.ino)
		e.U8(uint8(ent.mode))
	}
}

func decodeBucketFrom(d *wire.Decoder) (*bucket, error) {
	n := d.U32()
	if d.Err() == nil && int64(n) > int64(d.Remaining()/13) {
		return nil, fmt.Errorf("sting: bucket with %d entries in %d bytes", n, d.Remaining())
	}
	b := newBucket()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		name := d.String32()
		b.put(name, dirEnt{ino: d.U64(), mode: vfs.FileMode(d.U8())})
	}
	b.dirty = false
	return b, d.Err()
}

func decodeBucket(p []byte) (*bucket, error) {
	d := wire.NewDecoder(p)
	b, err := decodeBucketFrom(d)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("sting: %d trailing bytes after bucket", d.Remaining())
	}
	return b, err
}

// nameHash is 64-bit FNV-1a.
func nameHash(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

func (in *inode) bucketOf(name string) int {
	if in.nb == 0 {
		return 0
	}
	return int(nameHash(name) & uint64(in.nb-1))
}

// bucket returns dir's bucket i, loading it if needed. Caller holds fs.mu.
func (fs *FS) bucket(dir *inode, i int) (*bucket, error) {
	if b := dir.buckets[i]; b != nil {
		return b, nil
	}
	b := newBucket()
	p, err := dir.tree.get(fs, uint64(i))
	if err == nil && !p.isHole() {
		var data []byte
		if data, err = fs.log.Read(p.addr, 0, p.len); err == nil {
			b, err = decodeBucket(data)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read bucket %d of directory %d: %w", i, dir.ino, err)
	}
	dir.buckets[i] = b
	return b, nil
}

// lookup finds name in dir. Caller holds fs.mu.
func (fs *FS) lookup(dir *inode, name string) (dirEnt, bool, error) {
	b, err := fs.bucket(dir, dir.bucketOf(name))
	if err != nil {
		return dirEnt{}, false, err
	}
	ent, ok := b.ents[name]
	return ent, ok, nil
}

// link adds or replaces dir's entry for name. Caller holds fs.mu and
// marks dir dirty.
func (fs *FS) link(dir *inode, name string, ent dirEnt) error {
	b, err := fs.bucket(dir, dir.bucketOf(name))
	if err != nil {
		return err
	}
	if _, ok := b.ents[name]; !ok {
		dir.nents++
	}
	b.put(name, ent)
	if b.bytes <= mapBlockSize || dir.nb >= maxBuckets {
		return nil
	}
	return fs.rehash(dir)
}

// unlinkName removes dir's entry for name, which must exist. Caller
// holds fs.mu and marks dir dirty.
func (fs *FS) unlinkName(dir *inode, name string) error {
	b, err := fs.bucket(dir, dir.bucketOf(name))
	if err != nil {
		return err
	}
	delete(b.ents, name)
	b.bytes -= entSize(name)
	b.dirty = true
	dir.nents--
	return nil
}

// rehash at least doubles dir's bucket count, until every bucket fits a
// map block. Every bucket is rewritten at the next flush.
func (fs *FS) rehash(dir *inode) error {
	all, err := fs.allEntries(dir)
	if err != nil {
		return err
	}
	nb := 2 * dir.nb
	if nb == 0 {
		nb = 2
	}
	for {
		buckets := make([]*bucket, nb)
		for i := range buckets {
			buckets[i] = newBucket()
			buckets[i].dirty = true
		}
		fits := true
		for name, ent := range all {
			b := buckets[nameHash(name)&uint64(nb-1)]
			b.put(name, ent)
			fits = fits && b.bytes <= mapBlockSize
		}
		if fits || nb >= maxBuckets {
			dir.nb, dir.buckets = nb, buckets
			return nil
		}
		nb *= 2
	}
}

// allEntries loads every bucket of dir and returns its entries by name.
// Caller holds fs.mu.
func (fs *FS) allEntries(dir *inode) (map[string]dirEnt, error) {
	all := make(map[string]dirEnt, dir.nents)
	for i := range dir.buckets {
		b, err := fs.bucket(dir, i)
		if err != nil {
			return nil, err
		}
		for name, ent := range b.ents {
			all[name] = ent
		}
	}
	return all, nil
}

// flushBuckets appends dir's dirty buckets and points its tree at them.
// Caller holds fs.mu.
func (fs *FS) flushBuckets(dir *inode, free func(blockPtr)) error {
	for i, b := range dir.buckets {
		if b == nil || !b.dirty {
			continue
		}
		b.dirty = false
		if dir.nb == 0 {
			continue // inline: written with the inode
		}
		var p blockPtr
		if len(b.ents) > 0 {
			e := wire.NewEncoder(b.bytes)
			b.encodeTo(e)
			var err error
			if p, err = fs.appendBlock(e.Bytes(), hint{kind: hintData, ino: dir.ino, pos: uint64(i), gen: dir.gen}); err != nil {
				return err
			}
			fs.stats.MapBlocksOut++
		}
		old, err := dir.tree.set(fs, uint64(i), p)
		if err != nil {
			return err
		}
		free(old)
	}
	return nil
}
