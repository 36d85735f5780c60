package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The swarmlint CLI is itself a CI gate, so its contract — exit codes,
// diagnostic format, -list output — is pinned here. The dirty/clean
// cases run the real binary path (flag parsing, module resolution,
// loading, parallel analysis, relative-path printing) against throwaway
// modules built in t.TempDir.

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range []string{
		"bufpool", "lockio", "guardedby", "errclass", "placement",
		"statuscase", "atomicmix", "goroleak",
	} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout)
		}
	}
}

func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, "-only", "nosuch")
	if code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "nosuch") {
		t.Errorf("stderr does not name the unknown analyzer: %q", stderr)
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	code, _, _ := runCLI(t, "-definitely-not-a-flag")
	if code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
}

// writeModule lays out a throwaway single-package module.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmp\n\ngo 1.24\n"
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCleanModuleExitsZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"clean.go": "package tmp\n\nfunc Add(a, b int) int { return a + b }\n",
	})
	code, stdout, stderr := runCLI(t, "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("clean module exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("clean module produced output: %q", stdout)
	}
}

// dirtySrc mixes atomic and plain access to one field — an atomicmix
// violation any module triggers, with stdlib-only imports. The plain
// read sits on line 12.
const dirtySrc = `package tmp

import "sync/atomic"

type c struct {
	n int64
}

func (x *c) bump() { atomic.AddInt64(&x.n, 1) }

func (x *c) read() int64 {
	return x.n
}
`

func TestDirtyModuleGoldenOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{"dirty.go": dirtySrc})
	code, stdout, stderr := runCLI(t, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("dirty module exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	// The full diagnostic line is the golden contract: module-relative
	// path, line number, message, analyzer tag.
	want := fmt.Sprintf("dirty.go:12: field %q is accessed with sync/atomic elsewhere but plainly here; "+
		"use the atomic API or annotate with swarmlint:atomic-ok [atomicmix]\n", "n")
	if stdout != want {
		t.Errorf("diagnostic output:\n got: %q\nwant: %q", stdout, want)
	}
	if !strings.Contains(stderr, "1 finding(s)") {
		t.Errorf("stderr missing findings count: %q", stderr)
	}
}
