// Package lockio is a swarmlint test fixture: each method exercises one
// lockio-analyzer behavior, with expected diagnostics declared in want
// comments.
package lockio

import (
	"net"
	"sync"

	"swarm/internal/disk"
)

type srv struct {
	mu sync.Mutex
	d  disk.Disk
	c  net.Conn
	n  int

	// wlock serializes writes to c. swarmlint:io-mutex
	wlock sync.Mutex
}

func (s *srv) badSync() {
	s.mu.Lock()
	s.d.Sync() // want "disk I/O"
	s.mu.Unlock()
}

func (s *srv) badWrite(p []byte) error {
	s.mu.Lock()
	err := s.d.WriteAt(p, 0) // want "disk I/O"
	s.mu.Unlock()
	return err
}

func (s *srv) badDeferred() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.c.Write(nil) // want "network I/O"
	return err
}

func (s *srv) badHelper() {
	s.mu.Lock()
	frame(s.c) // want "network I/O"
	s.mu.Unlock()
}

func (s *srv) badNested(cond bool) {
	s.mu.Lock()
	if cond {
		s.d.Sync() // want "disk I/O"
	}
	s.mu.Unlock()
}

func (s *srv) badLateLock(cond bool) {
	if cond {
		s.mu.Lock()
		s.d.Sync() // want "disk I/O"
		s.mu.Unlock()
	}
}

func frame(c net.Conn) { c.Write(nil) }

func (s *srv) goodAfterUnlock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.d.Sync()
}

func (s *srv) goodCloseUnderLock() {
	// Close is teardown, not blocking I/O.
	s.mu.Lock()
	s.c.Close()
	s.mu.Unlock()
}

func (s *srv) goodWriteMutex() {
	// wlock exists to serialize writes; I/O under it is its purpose.
	s.wlock.Lock()
	s.c.Write(nil)
	s.wlock.Unlock()
}

// badAnnotatedFunc: swarmlint:locked-io is not an escape hatch, on a
// function or on a statement; I/O under the lock is still flagged.
// swarmlint:locked-io
func (s *srv) badAnnotatedFunc() {
	s.mu.Lock()
	s.d.Sync() // want "disk I/O"
	s.mu.Unlock()
}

func (s *srv) badAnnotatedStmt() {
	s.mu.Lock()
	s.d.Sync() // swarmlint:locked-io // want "disk I/O"
	s.mu.Unlock()
}

func (s *srv) goodGoroutine() {
	// The spawned body runs after the region; it is not flagged.
	s.mu.Lock()
	go func() { s.d.Sync() }()
	s.mu.Unlock()
}

func (s *srv) goodUnlockEveryBranch(cond bool) {
	s.mu.Lock()
	if cond {
		s.n++
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.d.Sync()
}

func (s *srv) badLockOnOnePath(cond bool) {
	if cond {
		s.mu.Lock()
	}
	s.d.Sync() // want "disk I/O"
}

func (s *srv) badSwitchTag() {
	s.mu.Lock()
	switch s.d.Sync() { // want "disk I/O"
	case nil:
	}
	s.mu.Unlock()
}
