// Command benchab is the repository's performance gate. It runs the
// benchmark under bench/ on BASE and on the working tree in alternating
// pairs, and fails when the working tree makes an end-to-end metric
// worse than BENCHMARK.json allows.
//
//	go run ./cmd/benchab <base-rev>     (or: make bench-ab BASE=<rev>)
//
// BASE is checked out as a git worktree under .bench_build/, removed on
// every exit. Pair i (1..10) of each workload runs seed i on both trees
// through each tree's own bench/run.sh, the base first in odd pairs so
// that host drift within a pair favours neither side. A metric fails
// when the upper edge of a bootstrap 95 % interval of its median paired
// ratio, oriented so that above 1 is worse, is past 1 + its bound.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

const (
	pairs         = 10 // the fewest paired runs a claim may rest on
	resamples     = 10000
	bootstrapSeed = 20 // fixed, so the same runs give the same interval
)

var (
	sideName = [2]string{"base", "change"}
	verdict  = map[bool]string{true: "FAIL"}
)

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []metric `json:"end_to_end"`
}

type metric struct {
	Name, Better string
	Bound        float64
}

// record is the JSON line that ends a benchmark run.
type record struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

// runFunc runs one workload at one seed on the tree rooted at dir.
type runFunc func(ctx context.Context, dir, workload string, seed int) (record, error)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchab <base-rev>   (make bench-ab BASE=<rev>)")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if err := abTest(ctx, os.Args[1], os.Stdout); err != nil {
		stop()
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

// abTest checks out base, then runs and judges the pairs.
func abTest(ctx context.Context, base string, out io.Writer) error {
	root, err := git(ctx, "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	var sp spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	for _, m := range sp.EndToEnd {
		if err == nil && m.Better != "lower" && m.Better != "higher" {
			err = fmt.Errorf("metric %s: better is %q, not lower or higher", m.Name, m.Better)
		}
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	dir := filepath.Join(root, ".bench_build", "benchab-base")
	removeWorktree(root, dir) // left behind by a run that was killed
	defer removeWorktree(root, dir)
	if _, err := git(ctx, "-C", root, "worktree", "add", "--detach", dir, base); err != nil {
		return fmt.Errorf("BASE %q: %w", base, err)
	}
	if err := checkBase(dir); err != nil {
		return fmt.Errorf("BASE %s: %w", base, err)
	}
	fmt.Fprintf(out, "benchab: base %s vs the working tree, %d pairs per workload\n", base, pairs)
	return gate(ctx, sp, [2]string{dir, root}, voltbench(sp.RunSeconds), out)
}

// git runs a git command and returns its trimmed output.
func git(ctx context.Context, args ...string) (string, error) {
	cmd := exec.CommandContext(ctx, "git", args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(b)), nil
}

// removeWorktree deletes the base checkout, if any, and prunes its
// record, quietly and without ctx: it also runs after an interrupt.
func removeWorktree(root, dir string) {
	_ = exec.Command("git", "-C", root, "worktree", "remove", "--force", dir).Run()
	_ = os.RemoveAll(dir)
	_ = exec.Command("git", "-C", root, "worktree", "prune").Run()
}

// checkBase refuses a base tree that has no benchmark to run.
func checkBase(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, "bench", "run.sh")); err != nil {
		return fmt.Errorf("no bench/run.sh: the revision predates the benchmark, so there is nothing to compare: %w", err)
	}
	return nil
}

// voltbench runs a tree's own bench/run.sh, which builds the benchmark
// from that tree's sources, and decodes the JSON line that ends a run.
func voltbench(seconds float64) runFunc {
	return func(ctx context.Context, dir, workload string, seed int) (record, error) {
		var r record
		cmd := exec.CommandContext(ctx, "bash", filepath.Join(dir, "bench", "run.sh"),
			"--workload", workload, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return r, fmt.Errorf("bench/run.sh: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return r, fmt.Errorf("bench/run.sh result line: %w", err)
		}
		return r, nil
	}
}

// gate runs every workload's pairs on trees (base, change). It returns
// nil only when no run failed or printed "correct":false, no metric is
// past its bound, and no workload's change failed a larger share of ops.
func gate(ctx context.Context, sp spec, trees [2]string, run runFunc, out io.Writer) error {
	ok := true
	for _, w := range sp.Workloads {
		var recs [2][]record
		var failed, attempted [2]int
		for seed := 1; seed <= pairs; seed++ {
			for k := range 2 {
				side := (k + seed + 1) % 2 // base first in odd pairs
				r, err := run(ctx, trees[side], w.Name, seed)
				if err == nil && !r.Correct {
					err = errors.New(`the run reported "correct":false`)
				}
				if err != nil {
					return fmt.Errorf("%s seed %d on the %s: %w", w.Name, seed, sideName[side], err)
				}
				fmt.Fprintf(os.Stderr, "benchab: %s seed %d %s: %d ops, %d failed\n", w.Name, seed, sideName[side], r.Attempted, r.Failed)
				recs[side] = append(recs[side], r)
				failed[side] += r.Failed
				attempted[side] += r.Attempted
			}
		}
		wok, err := judge(w.Name, sp.EndToEnd, recs, out)
		if err != nil {
			return err
		}
		worse := failed[1]*attempted[0] > failed[0]*attempted[1] // a larger failed share
		fmt.Fprintf(out, "%-10s %-16s %13s %13s %s\n", "", "failed/attempted",
			fmt.Sprintf("%d/%d", failed[0], attempted[0]), fmt.Sprintf("%d/%d", failed[1], attempted[1]), verdict[worse])
		ok = ok && wok && !worse
	}
	if !ok {
		return errors.New("FAIL: the change is worse than BENCHMARK.json allows (rows marked FAIL)")
	}
	return nil
}

// judge prints a row per metric of one workload: each side's median,
// the median paired ratio, the pairs the change won and the ratio's
// interval. It returns whether every metric is in bounds.
func judge(workload string, metrics []metric, recs [2][]record, out io.Writer) (bool, error) {
	ok := true
	fmt.Fprintf(out, "%-10s %-16s %13s %13s %7s %6s %17s %6s\n", workload, "metric", "base median", "change median", "ratio", "won", "95% interval", "limit")
	for _, m := range metrics {
		var vals [2][]float64
		var ratios []float64
		won := 0
		for i := range recs[0] {
			for side := range vals {
				v, found := recs[side][i].Metrics[m.Name]
				if !found {
					return false, fmt.Errorf("%s: metric %s is missing from the %s's seed %d run", workload, m.Name, sideName[side], i+1)
				}
				vals[side] = append(vals[side], v.Value)
			}
			ratios = append(ratios, ratio(vals[0][i], vals[1][i], m.Better))
			if ratios[i] < 1 {
				won++
			}
		}
		lo, hi := bootstrap(ratios)
		ok = ok && hi <= 1+m.Bound
		fmt.Fprintf(out, "%-10s %-16s %13.6g %13.6g %7.3f %3d/%-2d [%6.3f, %6.3f] %6.3f %s\n", "", m.Name,
			median(vals[0]), median(vals[1]), median(ratios), won, len(ratios), lo, hi, 1+m.Bound, verdict[hi > 1+m.Bound])
	}
	return ok, nil
}

// ratio orients a paired comparison so that above 1 means the change
// is worse. Metrics are not negative, so a zero base reads +Inf.
func ratio(base, change float64, better string) float64 {
	if better == "higher" {
		base, change = change, base
	}
	if change == base {
		return 1
	}
	return change / base
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// bootstrap returns the percentile 95 % interval of the median of xs
// over a fixed-seed resampling.
func bootstrap(xs []float64) (lo, hi float64) {
	rng := rand.New(rand.NewPCG(bootstrapSeed, 0))
	meds := make([]float64, resamples)
	sample := make([]float64, len(xs))
	for b := range meds {
		for i := range sample {
			sample[i] = xs[rng.IntN(len(xs))]
		}
		meds[b] = median(sample)
	}
	slices.Sort(meds)
	return meds[resamples/40], meds[resamples-1-resamples/40]
}
