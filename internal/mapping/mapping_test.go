package mapping

import (
	"context"
	"errors"
	"strings"
	"testing"

	"voltnoise/internal/analysis"
	"voltnoise/internal/core"
)

// perPlacement lifts a one-placement scoring rule to an Evaluator
// that scores each placement of a group in turn.
func perPlacement(score func(cores []int) (float64, int, error)) Evaluator {
	return func(placements [][]int) ([]Eval, error) {
		out := make([]Eval, len(placements))
		for i, cores := range placements {
			w, wc, err := score(cores)
			if err != nil {
				return nil, err
			}
			out[i] = Eval{WorstP2P: w, WorstCore: wc}
		}
		return out, nil
	}
}

// fakeEval scores placements by a synthetic rule: placements
// concentrated in one layout cluster (all same parity) are noisiest,
// mirroring the paper's finding.
var fakeEval = perPlacement(fakeScore)

func fakeScore(cores []int) (float64, int, error) {
	sameParity := true
	for _, c := range cores[1:] {
		if c%2 != cores[0]%2 {
			sameParity = false
		}
	}
	score := 20 + float64(len(cores))*2
	if sameParity {
		score += 4
	}
	return score, cores[0], nil
}

func TestBestWorst(t *testing.T) {
	best, worst, err := BestWorst(context.Background(), 3, 1, 1, fakeEval)
	if err != nil {
		t.Fatal(err)
	}
	if worst.WorstP2P <= best.WorstP2P {
		t.Errorf("worst %g <= best %g", worst.WorstP2P, best.WorstP2P)
	}
	// The worst placement must be a single-parity (same-cluster) trio.
	par := worst.Cores[0] % 2
	for _, c := range worst.Cores {
		if c%2 != par {
			t.Errorf("worst placement %v not single-cluster", worst.Cores)
		}
	}
	// Best placement mixes clusters.
	mixed := false
	for _, c := range best.Cores[1:] {
		if c%2 != best.Cores[0]%2 {
			mixed = true
		}
	}
	if !mixed {
		t.Errorf("best placement %v not mixed", best.Cores)
	}
	if len(best.Cores) != 3 || len(worst.Cores) != 3 {
		t.Error("placement sizes wrong")
	}
}

func TestBestWorstValidation(t *testing.T) {
	if _, _, err := BestWorst(context.Background(), 0, 1, 1, fakeEval); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := BestWorst(context.Background(), core.NumCores+1, 1, 1, fakeEval); err == nil {
		t.Error("k>n accepted")
	}
	if _, _, err := BestWorst(context.Background(), 2, 1, 1, nil); err == nil {
		t.Error("nil evaluator accepted")
	}
}

func TestBestWorstPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	eval := func(cores []int) (float64, int, error) {
		n++
		if n == 3 {
			return 0, 0, boom
		}
		return 1, 0, nil
	}
	if _, _, err := BestWorst(context.Background(), 2, 1, 1, perPlacement(eval)); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

// TestBestWorstShortEvaluator: an evaluator that returns fewer Evals
// than it was handed placements is an error, not a silent skip.
func TestBestWorstShortEvaluator(t *testing.T) {
	short := func(placements [][]int) ([]Eval, error) {
		return make([]Eval, len(placements)-1), nil
	}
	_, _, err := BestWorst(context.Background(), 2, 1, 3, short)
	if err == nil || !strings.Contains(err.Error(), "returned 2 results for 3 placements") {
		t.Errorf("short evaluator: err = %v", err)
	}
}

func TestBestWorstEnumeratesAllPlacements(t *testing.T) {
	count := 0
	eval := func(cores []int) (float64, int, error) {
		count++
		return float64(count), 0, nil
	}
	if _, _, err := BestWorst(context.Background(), 3, 1, 1, perPlacement(eval)); err != nil {
		t.Fatal(err)
	}
	if want := analysis.Binomial(core.NumCores, 3); count != want {
		t.Errorf("evaluated %d placements, want %d", count, want)
	}
}

func TestStudy(t *testing.T) {
	ops, err := Study(context.Background(), []int{1, 3, 6}, 1, 1, fakeEval)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("%d opportunities", len(ops))
	}
	// k=6: only one placement -> zero gain.
	if ops[2].GainP2P != 0 {
		t.Errorf("k=6 gain = %g, want 0", ops[2].GainP2P)
	}
	// k=3: cluster effect gives positive gain.
	if ops[1].GainP2P <= 0 {
		t.Errorf("k=3 gain = %g, want > 0", ops[1].GainP2P)
	}
	// k=1: all single placements score equally (no parity bonus
	// applies to... single cores are trivially same-parity) -> gain 0.
	if ops[0].GainP2P != 0 {
		t.Errorf("k=1 gain = %g", ops[0].GainP2P)
	}
	for _, op := range ops {
		if op.GainP2P != op.Worst.WorstP2P-op.Best.WorstP2P {
			t.Error("gain inconsistent with placements")
		}
	}
}

func TestStudyPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	eval := perPlacement(func([]int) (float64, int, error) { return 0, 0, boom })
	if _, err := Study(context.Background(), []int{2}, 1, 1, eval); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}
