package main

import (
	"syscall"
	"testing"
	"time"

	"swarm"
)

func TestRunRequiresBackingStore(t *testing.T) {
	if err := run("127.0.0.1:0", "", false, 1<<20, 1<<20, false, 0, 0, false, "", ""); err == nil {
		t.Fatal("run without -disk or -mem succeeded")
	}
}

func TestRunServesUntilSignal(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", "", true, 16<<20, 64<<10, false, 0, 0, true, "default=2", "default=100M:10000")
	}()
	// Give the server a moment to come up, then ask it to stop the way
	// an operator would.
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run exited with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("swarmd did not shut down on SIGTERM")
	}
}

func TestRunRejectsBusyAddress(t *testing.T) {
	s, err := swarm.NewServer(swarm.ServerOptions{
		DiskBytes:    8 << 20,
		FragmentSize: 64 << 10,
		Listen:       "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := run(s.Addr(), "", true, 8<<20, 64<<10, false, 0, 0, false, "", ""); err == nil {
		t.Fatal("run on a busy address succeeded")
	}
}
