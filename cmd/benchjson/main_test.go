package main

import (
	"strings"
	"testing"
)

func res(pkg, name string, width int, ns float64, b, allocs int64) Result {
	return Result{Package: pkg, Name: name, GOMAXPROCS: width,
		NsPerOp: ns, BytesPerOp: b, AllocsPerOp: allocs}
}

func TestPctDelta(t *testing.T) {
	cases := []struct {
		old, cur float64
		want     string
	}{
		{100, 150, "+50.0%"},
		{100, 80, "-20.0%"},
		{100, 100, "+0.0%"},
		{0, 50, "n/a"},
	}
	for _, c := range cases {
		if got := pctDelta(c.old, c.cur); got != c.want {
			t.Errorf("pctDelta(%v, %v) = %q, want %q", c.old, c.cur, got, c.want)
		}
	}
}

func TestDiffBaselineMatchesByPackageNameWidth(t *testing.T) {
	base := File{Results: []Result{
		res(".", "BenchmarkA", 1, 1000, 64, 2),
		res(".", "BenchmarkA", 4, 400, 64, 2),
		res(".", "BenchmarkGone", 1, 9, 0, 0),
	}}
	cur := File{Results: []Result{
		res(".", "BenchmarkA", 1, 800, 32, 1),
		res(".", "BenchmarkA", 4, 500, 64, 2),
		res(".", "BenchmarkNew", 1, 7, 0, 0),
	}}
	lines := diffBaseline(base, cur)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	if !strings.Contains(lines[0], "-20.0%") {
		t.Errorf("width-1 delta line missing -20%%: %q", lines[0])
	}
	if !strings.Contains(lines[1], "+25.0%") {
		t.Errorf("width-4 delta line missing +25%%: %q", lines[1])
	}
	if !strings.Contains(lines[2], "new, no baseline") {
		t.Errorf("new-benchmark line wrong: %q", lines[2])
	}
	if !strings.Contains(lines[3], "1 baseline results had no current counterpart") {
		t.Errorf("dropped summary wrong: %q", lines[3])
	}
}

func TestDiffBaselineDistinguishesPackages(t *testing.T) {
	// The same benchmark name in two packages must not cross-match.
	base := File{Results: []Result{res("./a", "BenchmarkX", 1, 100, 0, 0)}}
	cur := File{Results: []Result{res("./b", "BenchmarkX", 1, 100, 0, 0)}}
	lines := diffBaseline(base, cur)
	if len(lines) != 2 || !strings.Contains(lines[0], "new, no baseline") {
		t.Fatalf("cross-package match leaked:\n%s", strings.Join(lines, "\n"))
	}
}

func TestBenchLineParsing(t *testing.T) {
	m := benchLine.FindStringSubmatch("BenchmarkTrafficEngineMegapop-8   	      85	  13580000 ns/op	 1234 B/op	  56 allocs/op")
	if m == nil {
		t.Fatal("bench line did not parse")
	}
	if m[1] != "BenchmarkTrafficEngineMegapop" || m[3] != "13580000" {
		t.Fatalf("parsed %q ns/op %q", m[1], m[3])
	}
}
