package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"swarm/internal/disk"
	"swarm/internal/transport"
	"swarm/internal/vfs"
	"swarm/internal/wire"
)

// The traced run decorates the public interfaces between layers from the
// benchmark's own code: Sting calls (fileSystem, vfs.File), the
// transport.ServerConn between core and transport, the disk.Disk under
// each server.Store, and each server's net.Listener. Nothing inside the
// library is changed.

type spanKind uint8

const (
	spanRead     spanKind = iota // Sting File.ReadAt
	spanWrite                    // Sting File.WriteAt
	spanSync                     // Sting FS.Sync
	spanRPCRead                  // transport ServerConn.Read
	spanRPCStore                 // transport ServerConn.Store
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"sting.read", "sting.write", "sting.sync", "transport.read", "transport.store"}

func (k spanKind) isOp() bool { return k <= spanSync }

// span is one timed call. A Sting operation is a root span whose op is
// its own ID; an RPC made on that operation's goroutine while it runs
// carries the operation as op and parent. Stores shipped asynchronously
// by the fragio pipeline, and RPCs that outlive their operation (gather
// stragglers), have no parent.
type span struct {
	kind       spanKind
	client     uint8
	id         uint64
	op         uint64
	parent     uint64
	start, end int64 // nanoseconds since the tracer's epoch
}

type tracer struct {
	epoch  time.Time
	on     atomic.Bool // spans are kept only during the timed phase
	nextID atomic.Uint64

	rpcReadBytes atomic.Int64 // payload bytes returned by transport reads

	mu    sync.Mutex
	spans []span

	disk diskCounters
	wire wireCounters
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshotSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// writeSpans writes every kept span as CSV.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,client,id,op,parent,start_ns,end_ns")
	for _, s := range t.snapshotSpans() {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d\n", spanNames[s.kind], s.client, s.id, s.op, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}

// clientTrace tracks the Sting operation in progress on one client. Each
// client is driven by one goroutine, so at most one operation is open.
type clientTrace struct {
	t      *tracer
	client uint8
	cur    atomic.Uint64 // ID of the open Sting operation, 0 when none
}

// beginOp opens a Sting operation span. The start time is taken before
// the operation is published so every child observing it starts later.
func (ct *clientTrace) beginOp() (id uint64, start int64) {
	if !ct.t.on.Load() {
		return 0, 0
	}
	id = ct.t.nextID.Add(1)
	start = ct.t.now()
	ct.cur.Store(id)
	return id, start
}

// endOp closes the span; the operation is retracted before the end time
// is taken, so a child that still saw it open ended earlier.
func (ct *clientTrace) endOp(kind spanKind, id uint64, start int64) {
	if id == 0 {
		return
	}
	ct.cur.Store(0)
	ct.t.record(span{kind: kind, client: ct.client, id: id, op: id, start: start, end: ct.t.now()})
}

// rpc times fn as a transport span. A read is the child of the Sting
// operation open both when it starts and when it ends.
func (ct *clientTrace) rpc(kind spanKind, fn func()) {
	if !ct.t.on.Load() {
		fn()
		return
	}
	parent := ct.cur.Load()
	if kind == spanRPCStore {
		parent = 0
	}
	start := ct.t.now()
	fn()
	end := ct.t.now()
	if parent != 0 && ct.cur.Load() != parent {
		parent = 0
	}
	ct.t.record(span{kind: kind, client: ct.client, id: ct.t.nextID.Add(1), op: parent, parent: parent, start: start, end: end})
}

type tracedFS struct {
	inner fileSystem
	ct    *clientTrace
}

func (f *tracedFS) Create(path string) (vfs.File, error) {
	fl, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, ct: f.ct}, nil
}

func (f *tracedFS) Open(path string) (vfs.File, error) {
	fl, err := f.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: fl, ct: f.ct}, nil
}

func (f *tracedFS) Sync() error {
	id, start := f.ct.beginOp()
	err := f.inner.Sync()
	f.ct.endOp(spanSync, id, start)
	return err
}

type tracedFile struct {
	vfs.File
	ct *clientTrace
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	id, start := f.ct.beginOp()
	n, err := f.File.ReadAt(p, off)
	f.ct.endOp(spanRead, id, start)
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	id, start := f.ct.beginOp()
	n, err := f.File.WriteAt(p, off)
	f.ct.endOp(spanWrite, id, start)
	return n, err
}

// tracedConn sits between core and transport. It forwards Health so the
// fragio engine still sees the resilience layer underneath and does not
// add retries of its own.
type tracedConn struct {
	transport.ServerConn
	health transport.HealthReporter
	ct     *clientTrace
}

func (c *tracedConn) Health() transport.Health { return c.health.Health() }

func (c *tracedConn) Store(fid wire.FID, data []byte, mark bool, ranges []wire.ACLRange) error {
	var err error
	c.ct.rpc(spanRPCStore, func() { err = c.ServerConn.Store(fid, data, mark, ranges) })
	return err
}

func (c *tracedConn) Read(fid wire.FID, off, n uint32) ([]byte, error) {
	var (
		b   []byte
		err error
	)
	c.ct.rpc(spanRPCRead, func() { b, err = c.ServerConn.Read(fid, off, n) })
	c.ct.t.rpcReadBytes.Add(int64(len(b)))
	return b, err
}

// diskCounters aggregates the disk decorators of all servers.
type diskCounters struct {
	writeCalls, writeBytes, writeNanos atomic.Int64
	readCalls, readBytes, readNanos    atomic.Int64
	syncs, syncNanos                   atomic.Int64

	mu       sync.Mutex
	syncLats []int64 // guarded by mu; only while the tracer is on
}

type diskCounts struct {
	writeCalls, writeBytes, writeNanos int64
	readCalls, readBytes, readNanos    int64
	syncs, syncNanos                   int64
}

func (c *diskCounters) snapshot() diskCounts {
	return diskCounts{
		writeCalls: c.writeCalls.Load(), writeBytes: c.writeBytes.Load(), writeNanos: c.writeNanos.Load(),
		readCalls: c.readCalls.Load(), readBytes: c.readBytes.Load(), readNanos: c.readNanos.Load(),
		syncs: c.syncs.Load(), syncNanos: c.syncNanos.Load(),
	}
}

func (c *diskCounters) takeSyncLats() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.syncLats
	c.syncLats = nil
	return out
}

type tracedDisk struct {
	disk.Disk
	c  *diskCounters
	on *atomic.Bool
}

func (d *tracedDisk) ReadAt(p []byte, off int64) error {
	start := time.Now()
	err := d.Disk.ReadAt(p, off)
	d.c.readNanos.Add(int64(time.Since(start)))
	d.c.readCalls.Add(1)
	d.c.readBytes.Add(int64(len(p)))
	return err
}

func (d *tracedDisk) WriteAt(p []byte, off int64) error {
	start := time.Now()
	err := d.Disk.WriteAt(p, off)
	d.c.writeNanos.Add(int64(time.Since(start)))
	d.c.writeCalls.Add(1)
	d.c.writeBytes.Add(int64(len(p)))
	return err
}

func (d *tracedDisk) Sync() error {
	start := time.Now()
	err := d.Disk.Sync()
	ns := int64(time.Since(start))
	d.c.syncNanos.Add(ns)
	d.c.syncs.Add(1)
	if d.on.Load() {
		d.c.mu.Lock()
		d.c.syncLats = append(d.c.syncLats, ns)
		d.c.mu.Unlock()
	}
	return err
}

// wireCounters totals the TCP payload bytes every server received and
// sent (as acknowledged by the peer), read from the kernel's TCP_INFO so
// the connections keep their vectored writes.
type wireCounters struct {
	mu        sync.Mutex
	live      map[*countedConn]struct{}
	closedIn  uint64
	closedOut uint64
	closeErr  error // first failure to read a closing connection's counters
}

func (w *wireCounters) snapshot() (in, out uint64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closeErr != nil {
		return 0, 0, fmt.Errorf("wire bytes of a closed connection: %w", w.closeErr)
	}
	in, out = w.closedIn, w.closedOut
	for c := range w.live {
		ci, co, err := tcpBytes(c.TCPConn)
		if err != nil {
			return 0, 0, fmt.Errorf("wire bytes: %w", err)
		}
		in += ci
		out += co
	}
	return in, out, nil
}

type countingListener struct {
	net.Listener
	w *wireCounters
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc, ok := c.(*net.TCPConn)
	if !ok {
		return c, nil
	}
	cc := &countedConn{TCPConn: tc, w: l.w}
	l.w.mu.Lock()
	if l.w.live == nil {
		l.w.live = make(map[*countedConn]struct{})
	}
	l.w.live[cc] = struct{}{}
	l.w.mu.Unlock()
	return cc, nil
}

// countedConn embeds the *net.TCPConn, so net.Buffers still reaches its
// writev path; only Close is intercepted, to bank the byte totals.
type countedConn struct {
	*net.TCPConn
	w *wireCounters
}

func (c *countedConn) Close() error {
	c.w.mu.Lock()
	if _, ok := c.w.live[c]; ok {
		delete(c.w.live, c)
		if in, out, err := tcpBytes(c.TCPConn); err == nil {
			c.w.closedIn += in
			c.w.closedOut += out
		} else if c.w.closeErr == nil {
			c.w.closeErr = err
		}
	}
	c.w.mu.Unlock()
	return c.TCPConn.Close()
}

// Offsets of tcpi_bytes_acked and tcpi_bytes_received in Linux's
// struct tcp_info.
const (
	tcpInfoBytesAcked    = 120
	tcpInfoBytesReceived = 128
)

func tcpBytes(c *net.TCPConn) (received, acked uint64, err error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return 0, 0, err
	}
	var buf [256]byte
	size := uint32(len(buf))
	var errno syscall.Errno
	cerr := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&size)), 0)
	})
	if cerr != nil {
		return 0, 0, cerr
	}
	if errno != 0 {
		return 0, 0, errno
	}
	if size < tcpInfoBytesReceived+8 {
		return 0, 0, fmt.Errorf("tcp_info is %d bytes, too short for byte counters", size)
	}
	return binary.LittleEndian.Uint64(buf[tcpInfoBytesReceived:]), binary.LittleEndian.Uint64(buf[tcpInfoBytesAcked:]), nil
}
