package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"malt/internal/data"
	"malt/internal/ml/nn"
)

// Table 2: applications, models and dataset properties — the synthetic,
// scaled-down equivalents this repository generates, with the paper's
// original sizes alongside.
func runTable2(o Options, r *Report) error {
	r.Linef("%-22s %-6s %-9s %9s %8s %10s %9s %9s",
		"application", "model", "dataset", "train", "test", "params", "avg-nnz", "density")
	paper := map[string]string{
		"rcv1":    "781K/23K/47,152 in the paper",
		"alpha":   "250K/250K/500",
		"dna":     "23M/250K/800",
		"webspam": "250K/100K/16.6M",
		"splice":  "10M/111K/11M",
	}
	apps := map[string]string{
		"rcv1":    "Document classification",
		"alpha":   "Image classification",
		"dna":     "DNA detection",
		"webspam": "Webspam detection",
		"splice":  "Genome detection",
	}
	for _, sh := range data.Shapes() {
		ds, err := sh.Generate(o.Scale)
		if err != nil {
			return err
		}
		st := ds.Stats()
		r.Linef("%-22s %-6s %-9s %9d %8d %10d %9.1f %9.5f",
			apps[st.Name], "SVM", st.Name, st.Train, st.Test, st.Dim, st.AvgNNZ, st.Density)
		r.Linef("%-22s %-6s %-9s (%s)", "", "", "", paper[st.Name])
		r.Metric(st.Name+"_params", float64(st.Dim))
	}
	mfSpec := data.NetflixSpec(o.Scale)
	mfParams := (mfSpec.Users + mfSpec.Items) * mfSpec.Rank
	r.Linef("%-22s %-6s %-9s %9d %8d %10d", "Collaborative filtering", "MF", "netflix",
		mfSpec.Train, mfSpec.Test, mfParams)
	r.Linef("%-22s %-6s %-9s (100M/2.8M/14.9M in the paper)", "", "", "")
	ck := data.KDD12Spec(o.Scale)
	sizes, err := nn.LayerSizes(nn.Config{Input: ck.Dim, H1: 64, H2: 32})
	if err != nil {
		return err
	}
	nnParams := 0
	for _, s := range sizes {
		nnParams += s
	}
	r.Linef("%-22s %-6s %-9s %9d %8d %10d", "CTR prediction", "SSI", "kdd12",
		ck.Train, ck.Test, nnParams)
	r.Linef("%-22s %-6s %-9s (150M/100K/12.8M in the paper)", "", "", "")
	r.Metric("netflix_params", float64(mfParams))
	r.Metric("kdd12_params", float64(nnParams))
	return nil
}

// Table 3: developer effort — lines of MALT-specific code in each example
// application versus its total size, measured from the example sources in
// this repository (the paper reports ~87 modified + ~106 added lines,
// ≈15% of each application).
func runTable3(o Options, r *Report) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	examples := []struct{ app, dataset, path string }{
		{"SVM", "rcv1", "examples/svm/main.go"},
		{"Matrix Factorization", "netflix", "examples/matrixfactorization/main.go"},
		{"SSI (neural net)", "kdd12", "examples/neuralnet/main.go"},
		{"Quickstart SVM", "synthetic", "examples/quickstart/main.go"},
		{"K-means", "synthetic", "examples/kmeans/main.go"},
	}
	r.Linef("%-22s %-10s %8s %10s %8s", "application", "dataset", "LOC", "MALT LOC", "share")
	for _, ex := range examples {
		total, maltLines, err := countMALT(filepath.Join(root, ex.path))
		if err != nil {
			return fmt.Errorf("%s: %w", ex.path, err)
		}
		share := 0.0
		if total > 0 {
			share = float64(maltLines) / float64(total) * 100
		}
		r.Linef("%-22s %-10s %8d %10d %7.1f%%", ex.app, ex.dataset, total, maltLines, share)
		r.Metric(strings.ReplaceAll(ex.dataset, " ", "_")+"_malt_loc", float64(maltLines))
	}
	r.Linef("(paper: ~87 modified + ~106 added lines, ~15%% of each application)")
	return nil
}

// repoRoot locates the module root from this source file's position.
func repoRoot() (string, error) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "", fmt.Errorf("bench: cannot locate source file")
	}
	// file = <root>/internal/bench/tables.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file))), nil
}

// countMALT counts the non-blank, non-comment lines of a Go file and how
// many of them touch the MALT API (the "added for data-parallelism" lines
// of Table 3).
func countMALT(path string) (total, maltLines int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	maltMarkers := []string{
		"malt.", "ctx.", "CreateVector", "Scatter", "Gather", "Barrier",
		"Advance(", "Commit(", "Shard(", "SetIteration",
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		total++
		for _, m := range maltMarkers {
			if strings.Contains(line, m) {
				maltLines++
				break
			}
		}
	}
	return total, maltLines, sc.Err()
}
