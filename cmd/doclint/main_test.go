package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLintRefs builds a tiny repository and checks which references in a
// document lintRefs accepts and which it reports.
func TestLintRefs(t *testing.T) {
	root := t.TempDir()
	write := func(path, body string) {
		t.Helper()
		path = filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/plan/plan.go", "package plan\n")
	write("internal/plan/plan_test.go", "package plan\n\nfunc TestIndexA(t *testing.T) {}\nfunc BenchmarkPlanCold(b *testing.B) {}\n")
	write("cmd/sgd/main.go", "package main\n")
	write("good.md", "`internal/plan/plan.go` `internal/plan` `internal/plan.New` `cmd/sgd -node n0`\n"+
		"`internal/{plan,core}` `internal/plan/plan.go:12` `bench/out/run.json` TestIndexA `BenchmarkPlan{Cold,Warm}` TestIndex* Testing\n")
	write("bad.md", "`internal/plan/gone.go`\n`cmd/gone -x` and TestGone\n`BenchmarkGone*` `internal/gone.New`\n")

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if n := lintRefs([]string{"good.md"}); n != 0 {
		t.Errorf("good.md: %d findings, want 0", n)
	}
	if n := lintRefs([]string{"bad.md"}); n != 5 {
		t.Errorf("bad.md: %d findings, want 5", n)
	}
}
