package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// readCSV returns the data rows of one -csv series, parsed as floats.
func readCSV(t *testing.T, dir, name string) [][]float64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	rows := make([][]float64, 0, len(lines)-1)
	for _, line := range lines[1:] {
		var row []float64
		for _, f := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				t.Fatalf("%s.csv: %v", name, err)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	return rows
}

// reportFloat returns the float the first submatch of re captures in
// the report.
func reportFloat(t *testing.T, report string, re *regexp.Regexp) float64 {
	t.Helper()
	m := re.FindStringSubmatch(report)
	if m == nil {
		t.Fatalf("report has no line matching %q", re)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestFigureContract pins the paper's figure shapes that the README
// lists, on the -quick report: the resonant band and the worst cores
// of Fig 7a, the synchronized noise level of Fig 9, the margin order
// of Fig 12, the clusters of Fig 13a and the mapping gap of Fig 14. A
// change that stays self-consistent but moves the physics fails here.
func TestFigureContract(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-quick", "-run", "Fig7a,Fig9,Fig12,Fig13a,Fig14", "-csv", dir}
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	report := out.String()

	// Fig 7a: the worst point of the unsynchronized sweep lies in the
	// 2 MHz droop band, on core 2 or 4. Rows are freq_hz, c0..c5.
	var worstHz, worst float64
	worstCore := -1
	for _, row := range readCSV(t, dir, "fig7a") {
		for c, p := range row[1:] {
			if p > worst {
				worstHz, worst, worstCore = row[0], p, c
			}
		}
	}
	if worstHz < 1e6 || worstHz > 4e6 || (worstCore != 2 && worstCore != 4) {
		t.Errorf("Fig7a worst %.1f %%p2p at %g Hz on core %d, want the 2 MHz band on core 2 or 4", worst, worstHz, worstCore)
	}

	// Fig 9: synchronization lifts the worst point to ~61-67 %p2p.
	worst = 0
	for _, row := range readCSV(t, dir, "fig9") {
		for _, p := range row[1:] {
			worst = max(worst, p)
		}
	}
	if worst < 61 || worst > 67 {
		t.Errorf("Fig9 synchronized worst %.1f %%p2p, want [61, 67]", worst)
	}

	// Fig 12: margins order synchronized < unsynchronized < customer.
	// Rows are freq_hz, events, margin_pct; events 0 is the
	// unsynchronized run.
	var syncMargin, unsyncMargin float64
	for _, row := range readCSV(t, dir, "fig12") {
		if row[1] == 0 {
			unsyncMargin = row[2]
		} else {
			syncMargin = row[2]
		}
	}
	customer := reportFloat(t, report, regexp.MustCompile(`(?m)^customer\s+-\s+([0-9.]+)`))
	if !(syncMargin < unsyncMargin && unsyncMargin < customer) {
		t.Errorf("Fig12 margins sync %.1f, unsync %.1f, customer %.1f %%, want sync < unsync < customer", syncMargin, unsyncMargin, customer)
	}

	// Fig 13a: two clusters, {0,2,4} and {1,3,5}, each correlated above
	// 0.9 within.
	if !strings.Contains(report, "clusters: [[0 2 4] [1 3 5]]\n") {
		t.Errorf("Fig13a clusters are not {0,2,4}/{1,3,5}:\n%s", report)
	}
	corr := readCSV(t, dir, "fig13a")
	for i := range corr {
		for j := range corr[i] {
			if i%2 == j%2 && corr[i][j] <= 0.9 {
				t.Errorf("Fig13a correlation of cores %d and %d is %.3f, want > 0.9", i, j, corr[i][j])
			}
		}
	}

	// Fig 14: the best placement of three stressmarks is quieter than
	// the worst.
	best := reportFloat(t, report, regexp.MustCompile(`best mapping: .* worst-case ([0-9.]+) %p2p`))
	worstMap := reportFloat(t, report, regexp.MustCompile(`worst mapping: .* worst-case ([0-9.]+) %p2p`))
	if !(best < worstMap) {
		t.Errorf("Fig14 best mapping %.1f %%p2p, worst %.1f, want best < worst", best, worstMap)
	}
}
