package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condor"
	"condor/internal/models"
)

// TestWriteArtifactsSortedOrder: `condor build` writes and reports its files
// in sorted path order, so every run prints the same "wrote" lines, and
// each file holds the build's bytes.
func TestWriteArtifactsSortedOrder(t *testing.T) {
	ir, ws, err := models.TC1()
	if err != nil {
		t.Fatal(err)
	}
	b, err := condor.New().BuildAccelerator(condor.Input{IR: ir, Weights: ws})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := filepath.Join(dir, b.Meta.Name)
	want := "wrote " + strings.Join([]string{base + ".cndw", base + ".json", base + ".xclbin", base + ".xo", base + "_host.c"}, "\nwrote ") + "\n"
	for run := 0; run < 5; run++ {
		var out bytes.Buffer
		if err := writeArtifacts(&out, b, base); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Fatalf("run %d printed\n%s\nwant\n%s", run, out.String(), want)
		}
	}
	got, err := os.ReadFile(base + ".xclbin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b.Xclbin) {
		t.Fatal("the written xclbin differs from the build's")
	}
}
