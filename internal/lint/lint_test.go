package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The loader shells out to `go list -deps -export ./...` once; every
// test shares the result.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := ModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loader
}

// wantRe matches `// want "regex"` expectation comments in fixtures.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// expectation is one `// want` comment: a diagnostic regex anchored to
// a fixture line.
type expectation struct {
	line int
	re   *regexp.Regexp
	hit  bool
}

// checkFixture loads testdata/src/<name>, runs the analyzer over it,
// and verifies the diagnostics exactly match the fixture's want
// comments.
func checkFixture(t *testing.T, name string, analyzer Analyzer) {
	t.Helper()
	l := testLoader(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.CheckDir("fixture/"+name, dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regex %q: %v", m[1], err)
					}
					wants = append(wants, &expectation{
						line: pkg.Fset.Position(c.Pos()).Line,
						re:   re,
					})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no expectations", name)
	}

	diags := Run([]*Package{pkg}, []Analyzer{analyzer})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", name, w.line, w.re)
		}
	}
}

func TestBufPoolFixture(t *testing.T) {
	checkFixture(t, "bufpool", NewBufPool("swarm/internal/wire"))
}

func TestLockIOFixture(t *testing.T) {
	checkFixture(t, "lockio", NewLockIO("swarm/internal/disk"))
}

func TestGuardedByFixture(t *testing.T) {
	checkFixture(t, "guardedby", NewGuardedBy())
}

func TestErrClassFixture(t *testing.T) {
	checkFixture(t, "errclass", NewErrClass([]string{"fixture/errclass"}))
}

func TestPlacementFixture(t *testing.T) {
	checkFixture(t, "placement", NewPlacement([]string{"fixture/placement"}))
}

func TestStatusCaseFixture(t *testing.T) {
	checkFixture(t, "statuscase", NewStatusCase("fixture/statuscase.Status", []string{"fixture/statuscase"}))
}

func TestAtomicMixFixture(t *testing.T) {
	checkFixture(t, "atomicmix", NewAtomicMix())
}

func TestGoroLeakFixture(t *testing.T) {
	checkFixture(t, "goroleak", NewGoroLeak([]string{"fixture/goroleak"}))
}

// TestStatusCaseSkipsUnlistedPackages pins the boundary: a switch over
// the enum in a package outside the data path is not checked.
func TestStatusCaseSkipsUnlistedPackages(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.CheckDir("fixture/statuscase", filepath.Join("testdata", "src", "statuscase"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []Analyzer{NewStatusCase("fixture/statuscase.Status", []string{"swarm/internal/transport"})})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics outside checked packages, got %d: %v", len(diags), diags)
	}
}

// TestGoroLeakSkipsUnlistedPackages pins the boundary: goroutines in
// packages outside the data path (benchmarks, CLIs) are not checked.
func TestGoroLeakSkipsUnlistedPackages(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.CheckDir("fixture/goroleak", filepath.Join("testdata", "src", "goroleak"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []Analyzer{NewGoroLeak([]string{"swarm/internal/server"})})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics outside checked packages, got %d: %v", len(diags), diags)
	}
}

// TestPlacementSkipsUnlistedPackages pins the boundary: the same
// fixture body produces nothing when its package is not in the checked
// set (harness/CLI construction code stays free to index its own
// slices).
func TestPlacementSkipsUnlistedPackages(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.CheckDir("fixture/placement", filepath.Join("testdata", "src", "placement"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []Analyzer{NewPlacement([]string{"swarm/internal/core"})})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics outside checked packages, got %d: %v", len(diags), diags)
	}
}

// TestErrClassSkipsUnlistedPackages pins the boundary: the same fixture
// body produces nothing when its package is not in the classified set.
func TestErrClassSkipsUnlistedPackages(t *testing.T) {
	l := testLoader(t)
	pkg, err := l.CheckDir("fixture/errclass", filepath.Join("testdata", "src", "errclass"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []Analyzer{NewErrClass([]string{"swarm/internal/transport"})})
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics outside classified packages, got %d: %v", len(diags), diags)
	}
}

// TestRepoClean self-hosts: the full default suite must pass over the
// repository, matching the `make lint` CI gate.
func TestRepoClean(t *testing.T) {
	l := testLoader(t)
	pkgs, err := l.Load()
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	var report strings.Builder
	diags := Run(pkgs, Default())
	for _, d := range diags {
		fmt.Fprintf(&report, "  %s\n", d)
	}
	if len(diags) != 0 {
		t.Errorf("repository is not lint-clean (%d findings):\n%s", len(diags), report.String())
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "bufpool", Message: "leak"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line = 12
	if got, want := d.String(), "a/b.go:12: leak [bufpool]"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestByName(t *testing.T) {
	all := Default()
	got, err := ByName(all, []string{"lockio", "errclass"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name() != "lockio" || got[1].Name() != "errclass" {
		t.Fatalf("ByName selected %v", got)
	}
	if _, err := ByName(all, []string{"nosuch"}); err == nil {
		t.Fatal("expected error for unknown analyzer name")
	}
}
