package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFunnelSmoke runs the cheapest experiment through the real CLI
// entry point: the report goes to out, the wall-clock timing lines to
// the timing writer only.
func TestFunnelSmoke(t *testing.T) {
	var out, timing strings.Builder
	if err := run(context.Background(), []string{"-quick", "-run", "Funnel"}, &out, &timing); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"max-power sequence:",
		"=== Funnel:",
		"candidates:",
		"winner:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	for _, want := range []string{"platform ready in ", "(Funnel in "} {
		if !strings.Contains(timing.String(), want) {
			t.Errorf("timing lines missing %q:\n%s", want, timing.String())
		}
		if strings.Contains(got, want) {
			t.Errorf("report carries timing line %q:\n%s", want, got)
		}
	}
}

// TestGuardbandCSV: the -csv flag materializes data series on disk.
func TestGuardbandCSV(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(context.Background(), []string{"-quick", "-run", "Fig7a", "-csv", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7a.csv"))
	if err != nil {
		t.Fatalf("fig7a.csv not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "freq_hz,c0,c1,c2,c3,c4,c5" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Errorf("csv has no data rows:\n%s", data)
	}
}

// TestBatchFlagDeterminism: the -batch flag changes scheduling only —
// the report is byte-identical at every lane width. Fig14 exercises
// the batched placement evaluator; the timing lines go to their own
// writer, so the reports compare whole.
func TestBatchFlagDeterminism(t *testing.T) {
	run1 := func(batch string) string {
		var out strings.Builder
		if err := run(context.Background(), []string{"-quick", "-run", "Fig14", "-batch", batch}, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	ref := run1("1")
	for _, batch := range []string{"0", "3", "8"} {
		if got := run1(batch); got != ref {
			t.Errorf("-batch %s changed the output:\nbatch=1:\n%s\nbatch=%s:\n%s", batch, ref, batch, got)
		}
	}
}

// TestUnknownExperimentErrors: a bad -run id is a clean error listing
// the known ids.
func TestUnknownExperimentErrors(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-quick", "-run", "Fig99"}, &out, io.Discard)
	if err == nil {
		t.Fatal("no error for unknown experiment id")
	}
	if !strings.Contains(err.Error(), "Fig99") || !strings.Contains(err.Error(), "Table1") {
		t.Errorf("error %q does not name the bad id and the known ids", err)
	}
}

// TestBadFlagErrors: an unknown flag is a clean error.
func TestBadFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-bogus"}, &out, io.Discard); err == nil {
		t.Fatal("no error for unknown flag")
	}
}
