package condor

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_tables.golden and the paper-vs-measured blocks of README.md and EXPERIMENTS.md")

const paperGolden = "testdata/paper_tables.golden"

// TestPaperTables pins the reproduction: every Table 1 cell, both Table 2
// columns and every Figure 5 point, each beside the paper's value and the
// ratio, must equal testdata/paper_tables.golden, and the paper-vs-measured
// blocks of README.md and EXPERIMENTS.md must be exactly what condor-bench
// prints. -update rewrites the golden and the blocks; a model change that
// moves a paper number then shows up as a diff of both.
func TestPaperTables(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// As the kernel digest: elsewhere Go may fuse a multiply-add and move
		// a last digit.
		t.Skip("the paper tables are recorded on amd64")
	}
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	f5, err := Figure5(DefaultFigure5Batches)
	if err != nil {
		t.Fatal(err)
	}
	gate := VerifyVGGClassifierGate()

	var g strings.Builder
	cell := func(table, name, col string, measured float64, paper string, ratio float64) {
		fmt.Fprintf(&g, "%-7s %-6s %-18s measured %-12.6g paper %-8s ratio %.4f\n", table, name, col, measured, paper, ratio)
	}
	for i, r := range t1 {
		for _, c := range table1Columns {
			p := c.Of(Table1Paper[i])
			cell("table1", r.Name, c.Name, c.Of(r), fmt.Sprint(p), c.Of(r)/p)
		}
	}
	for i, r := range t2 {
		p := Table2Paper[i].GFLOPS
		cell("table2", r.Name, "GFLOPS", r.GFLOPS, fmt.Sprint(p), r.GFLOPS/p)
		cell("table2", r.Name, "this repo's DSE", r.DSEGFLOPS, fmt.Sprint(p), r.DSEGFLOPS/p)
	}
	for _, s := range f5 {
		last := s.Points[len(s.Points)-1].MeanMsPerImage
		for _, p := range s.Points {
			// The paper plots Figure 5 without values: the ratio is to the
			// largest batch, as WriteFigure5 prints it.
			cell("figure5", s.Name, fmt.Sprintf("batch %d ms/img", p.Batch), p.MeanMsPerImage, "-", p.MeanMsPerImage/last)
		}
	}
	checkGolden(t, paperGolden, g.String())

	blocks := map[string]string{}
	for name, write := range map[string]func(*bytes.Buffer){
		"table1":  func(b *bytes.Buffer) { WriteTable1(b, t1) },
		"table2":  func(b *bytes.Buffer) { WriteTable2(b, t2, gate) },
		"figure5": func(b *bytes.Buffer) { WriteFigure5(b, f5) },
	} {
		var b bytes.Buffer
		write(&b)
		blocks[name] = "```text\n" + b.String() + "```\n"
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		checkDocBlocks(t, doc, blocks)
	}
}

// checkGolden compares got with the golden file line by line, naming the
// lines that moved; -update rewrites the file instead.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	if len(want) != len(have) {
		t.Fatalf("%s: %d lines, the run has %d", path, len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("%s line %d moved:\n  got  %s\n  want %s", path, i+1, have[i], want[i])
		}
	}
}

// checkDocBlocks requires every block to sit in doc between
// "<!-- paper-tables:NAME -->" and "<!-- /paper-tables:NAME -->" lines with
// exactly the rendered text between them; -update rewrites what is there.
func checkDocBlocks(t *testing.T, doc string, blocks map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for name, want := range blocks {
		open, end := "<!-- paper-tables:"+name+" -->\n", "<!-- /paper-tables:"+name+" -->"
		i := strings.Index(text, open)
		j := strings.Index(text, end)
		if i < 0 || j < i {
			t.Errorf("%s: no %s … %s block", doc, strings.TrimSpace(open), end)
			continue
		}
		i += len(open)
		if text[i:j] == want {
			continue
		}
		if *update {
			text = text[:i] + want + text[j:]
			continue
		}
		t.Errorf("%s: the %s block differs from what condor-bench prints (go test -run TestPaperTables -update . rewrites it):\n%s", doc, name, want)
	}
	if *update && text != string(raw) {
		if err := os.WriteFile(doc, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
