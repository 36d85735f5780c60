package sting

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"swarm/internal/cleaner"
	"swarm/internal/vfs"
)

// The model test runs seeded random sequences of file-system operations
// against Sting and an in-memory oracle, crashing and recovering along
// the way. A failure names its seed; replay one with
//
//	go test ./internal/sting -run TestStingModel -sting.seed=N -v

var modelSeed = flag.Int64("sting.seed", 0, "run TestStingModel with this seed only")

const (
	modelSeeds = 40
	modelOps   = 300
)

// oracleFile is a sparse file: blocks of testBlockSize, absent = zeros.
type oracleFile struct {
	size   int64
	blocks map[int64][]byte
}

func (f *oracleFile) clone() *oracleFile {
	c := &oracleFile{size: f.size, blocks: make(map[int64][]byte, len(f.blocks))}
	for k, b := range f.blocks {
		c.blocks[k] = append([]byte(nil), b...)
	}
	return c
}

func (f *oracleFile) write(p []byte, off int64) {
	for i := range p {
		pos := off + int64(i)
		b := f.blocks[pos/testBlockSize]
		if b == nil {
			b = make([]byte, testBlockSize)
			f.blocks[pos/testBlockSize] = b
		}
		b[pos%testBlockSize] = p[i]
	}
	f.size = max(f.size, off+int64(len(p)))
}

func (f *oracleFile) truncate(size int64) {
	for k, b := range f.blocks {
		switch {
		case k*testBlockSize >= size:
			delete(f.blocks, k)
		case (k+1)*testBlockSize > size:
			clear(b[size-k*testBlockSize:])
		}
	}
	f.size = size
}

func (f *oracleFile) read(n int, off int64) []byte {
	out := make([]byte, n)
	for i := range out {
		if b := f.blocks[(off+int64(i))/testBlockSize]; b != nil {
			out[i] = b[(off+int64(i))%testBlockSize]
		}
	}
	return out
}

// oracle is the expected name space: directories and files by path.
type oracle struct {
	dirs  map[string]bool
	files map[string]*oracleFile
}

func (o *oracle) clone() *oracle {
	c := &oracle{dirs: make(map[string]bool), files: make(map[string]*oracleFile)}
	for d := range o.dirs {
		c.dirs[d] = true
	}
	for p, f := range o.files {
		c.files[p] = f.clone()
	}
	return c
}

var modelDirs = []string{"/", "/a", "/b", "/a/c"}

// modelOffset picks a write offset: mostly inside the inline root, some
// one and two map-block levels down, a few deeper still.
func modelOffset(rng *rand.Rand) int64 {
	switch r := rng.Intn(20); {
	case r < 12:
		return rng.Int63n(fanout * testBlockSize)
	case r < 17:
		return rng.Int63n(fanout * fanout * testBlockSize)
	case r < 19:
		return rng.Int63n(fanout * fanout * fanout * testBlockSize)
	default:
		return rng.Int63n(fanout * fanout * fanout * fanout * testBlockSize)
	}
}

func TestStingModel(t *testing.T) {
	seeds := make([]int64, 0, modelSeeds)
	if *modelSeed != 0 {
		seeds = append(seeds, *modelSeed)
	} else {
		for s := int64(1); s <= modelSeeds; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			if err := runModel(t, seed); err != nil {
				t.Fatalf("seed %d: %v (replay with -run TestStingModel -sting.seed=%d)", seed, err, seed)
			}
		})
	}
}

func runModel(t *testing.T, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	e := newEnv(t, 3)
	cur := &oracle{dirs: map[string]bool{"/": true}, files: make(map[string]*oracleFile)}
	for _, d := range modelDirs[1:] {
		if err := e.fs.Mkdir(d); err != nil {
			return err
		}
		cur.dirs[d] = true
	}
	if err := e.fs.Sync(); err != nil {
		return err
	}
	durable := cur.clone()

	fileNames := func() []string {
		names := make([]string, 0, len(cur.files))
		for p := range cur.files {
			names = append(names, p)
		}
		sort.Strings(names)
		return names
	}
	newPath := func() string {
		d := modelDirs[rng.Intn(len(modelDirs))]
		return strings.TrimSuffix(d, "/") + fmt.Sprintf("/file-with-a-long-name-%02d", rng.Intn(60))
	}
	for op := 0; op < modelOps; op++ {
		names := fileNames()
		pick := func() string { return names[rng.Intn(len(names))] }
		switch r := rng.Intn(100); {
		case r < 15 || len(names) == 0: // create (truncates an existing file)
			p := newPath()
			f, err := e.fs.Create(p)
			if err != nil {
				return fmt.Errorf("op %d create %s: %w", op, p, err)
			}
			f.Close()
			cur.files[p] = &oracleFile{blocks: make(map[int64][]byte)}
		case r < 55: // write or overwrite
			p := pick()
			data := make([]byte, 1+rng.Intn(3*testBlockSize))
			rng.Read(data)
			off := modelOffset(rng)
			if rng.Intn(3) == 0 {
				off = off / testBlockSize * testBlockSize // whole-block aligned
			}
			f, err := e.fs.Open(p)
			if err != nil {
				return fmt.Errorf("op %d open %s: %w", op, p, err)
			}
			if _, err := f.WriteAt(data, off); err != nil {
				return fmt.Errorf("op %d write %s: %w", op, p, err)
			}
			f.Close()
			cur.files[p].write(data, off)
		case r < 65: // truncate
			p := pick()
			size := cur.files[p].size
			if size > 0 {
				size = rng.Int63n(size + 1)
			}
			if rng.Intn(4) == 0 {
				size += rng.Int63n(4 * testBlockSize)
			}
			f, err := e.fs.Open(p)
			if err != nil {
				return fmt.Errorf("op %d open %s: %w", op, p, err)
			}
			if err := f.Truncate(size); err != nil {
				return fmt.Errorf("op %d truncate %s: %w", op, p, err)
			}
			f.Close()
			cur.files[p].truncate(size)
		case r < 72: // unlink
			p := pick()
			if err := e.fs.Unlink(p); err != nil {
				return fmt.Errorf("op %d unlink %s: %w", op, p, err)
			}
			delete(cur.files, p)
		case r < 80: // rename, possibly over an existing file
			from, to := pick(), newPath()
			if err := e.fs.Rename(from, to); err != nil {
				return fmt.Errorf("op %d rename %s %s: %w", op, from, to, err)
			}
			if from != to {
				cur.files[to] = cur.files[from]
				delete(cur.files, from)
			}
		case r < 88: // sync
			if err := e.fs.Sync(); err != nil {
				return fmt.Errorf("op %d sync: %w", op, err)
			}
			durable = cur.clone()
		case r < 92: // checkpoint
			if err := e.fs.Checkpoint(); err != nil {
				return fmt.Errorf("op %d checkpoint: %w", op, err)
			}
			durable = cur.clone()
		case r < 95: // sync, then a cleaner pass (which may flush moves)
			if err := e.fs.Sync(); err != nil {
				return fmt.Errorf("op %d sync: %w", op, err)
			}
			durable = cur.clone()
			c := cleaner.New(e.log, e.reg, cleaner.Config{UtilizationThreshold: 0.9, MaxStripesPerPass: 16})
			if _, err := c.CleanOnce(); err != nil && !errors.Is(err, cleaner.ErrNothingToClean) {
				return fmt.Errorf("op %d clean: %w", op, err)
			}
		default: // crash, losing what was not synced
			e.crash(t)
			cur = durable.clone()
			if err := checkModel(e.fs, cur, rng); err != nil {
				return fmt.Errorf("op %d after crash: %w", op, err)
			}
		}
	}
	if err := checkModel(e.fs, cur, rng); err != nil {
		return fmt.Errorf("at end: %w", err)
	}
	if err := e.fs.Unmount(); err != nil {
		return err
	}
	e.mount(t)
	if err := checkModel(e.fs, cur, rng); err != nil {
		return fmt.Errorf("after unmount and remount: %w", err)
	}
	return nil
}

// checkModel compares fs with the oracle: every directory listing, every
// file's size, every block the oracle holds, and a few holes and tails.
func checkModel(fs *FS, o *oracle, rng *rand.Rand) error {
	for _, d := range modelDirs {
		ents, err := fs.ReadDir(d)
		if err != nil {
			return fmt.Errorf("readdir %s: %w", d, err)
		}
		var got, want []string
		for _, ent := range ents {
			got = append(got, ent.Name)
		}
		for p := range o.dirs {
			if p != "/" && parentOf(p) == d {
				want = append(want, p[strings.LastIndex(p, "/")+1:])
			}
		}
		for p := range o.files {
			if parentOf(p) == d {
				want = append(want, p[strings.LastIndex(p, "/")+1:])
			}
		}
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			return fmt.Errorf("readdir %s = %v, want %v", d, got, want)
		}
	}
	for p, of := range o.files {
		f, err := fs.Open(p)
		if err != nil {
			return fmt.Errorf("open %s: %w", p, err)
		}
		size, err := f.Size()
		if err != nil || size != of.size {
			return fmt.Errorf("%s size = (%d,%v), want %d", p, size, err, of.size)
		}
		offs := []int64{size - 1, rng.Int63n(size + 1)}
		for k := range of.blocks {
			offs = append(offs, k*testBlockSize)
		}
		for _, off := range offs {
			if off < 0 || off >= size {
				continue
			}
			n := int(min(int64(2*testBlockSize), size-off))
			got := make([]byte, n)
			if _, err := f.ReadAt(got, off); err != nil {
				return fmt.Errorf("read %s at %d: %w", p, off, err)
			}
			if want := of.read(n, off); !bytes.Equal(got, want) {
				return fmt.Errorf("%s differs in [%d,%d)", p, off, off+int64(n))
			}
		}
		f.Close()
	}
	if _, err := fs.Stat("/no-such-file"); !errors.Is(err, vfs.ErrNotExist) {
		return fmt.Errorf("stat of a missing file: %v", err)
	}
	return nil
}

func parentOf(p string) string {
	i := strings.LastIndex(p, "/")
	if i == 0 {
		return "/"
	}
	return p[:i]
}
