package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFig678SweepReproducesCommittedCSV regenerates the Figures 6-8 sweep
// with the command's defaults (what `paperfigs -only fig6` runs) and
// requires the committed out/fig678_sweep.csv byte for byte.
func TestFig678SweepReproducesCommittedCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full 300-trial sweep")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "out", "fig678_sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sweepFigs(dir, defaultMaxN, defaultTrials, defaultSeed); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig678_sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("regenerated fig678_sweep.csv differs from out/:\n%s\nwant:\n%s", got, want)
	}
}
