package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// update rewrites testdata/golden_figures.sha256 from the current code:
//
//	go test ./internal/experiments -run TestFigureGolden -update
//
// A regeneration changes what the reproduction computes; record it in
// CHANGES.md together with the reason.
var update = flag.Bool("update", false, "rewrite the figure golden digests")

const goldenFiguresPath = "testdata/golden_figures.sha256"

// goldenConfig is the small campaign the figure golden pins: 64², one
// seed, 32 sampled outputs, all four datatypes, on the default device.
func goldenConfig() Config {
	cfg := Default()
	cfg.Size = 64
	cfg.Seeds = 1
	cfg.SampleOutputs = 32
	return cfg
}

// goldenDigests runs every figure panel, Fig. 7 over the paper's
// devices and Fig. 8 over the sweep panels, and returns one sha256 per
// artifact: each panel's CSV, the Fig. 7 text and the Fig. 8 text.
func goldenDigests(t *testing.T) [][2]string {
	t.Helper()
	cfg := goldenConfig()
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	var out [][2]string
	var all []*FigureResult
	for _, exp := range Figures() {
		fr, err := Run(exp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, fr); err != nil {
			t.Fatalf("%s csv: %v", exp.ID, err)
		}
		out = append(out, [2]string{exp.ID + ".csv", sum(buf.Bytes())})
		all = append(all, fr)
	}
	f7cfg := cfg
	f7cfg.DTypes = []matrix.DType{matrix.FP16}
	fig7, err := RunFig7(f7cfg, PaperDevices(cfg.Size))
	if err != nil {
		t.Fatalf("fig7: %v", err)
	}
	out = append(out, [2]string{"fig7.txt", sum([]byte(FormatFig7(fig7)))})
	out = append(out, [2]string{"fig8.txt", sum([]byte(FormatFig8(BuildFig8(all[2:]))))})
	return out
}

// TestFigureGolden pins the reproduction's outputs byte for byte: a
// refactor or speedup of any layer under the figures must leave every
// digest unchanged.
func TestFigureGolden(t *testing.T) {
	got := goldenDigests(t)
	if *update {
		var b strings.Builder
		b.WriteString("# sha256 of each figure artifact at 64², 1 seed, 32 samples, all dtypes.\n")
		b.WriteString("# Regenerate only with: go test ./internal/experiments -run TestFigureGolden -update\n")
		for _, d := range got {
			fmt.Fprintf(&b, "%s %s\n", d[0], d[1])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFiguresPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFiguresPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("bad golden line %q", line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d digests, the campaign produces %d", len(want), len(got))
	}
	for _, d := range got {
		if w, ok := want[d[0]]; !ok {
			t.Errorf("%s: no committed digest", d[0])
		} else if w != d[1] {
			t.Errorf("%s: digest %s, golden %s", d[0], d[1], w)
		}
	}
}
