package main

// campaign: what cmd/figures does, in memory — every panel Fig1–Fig6d,
// Fig. 7 across the paper's devices, Fig. 8 and the text/CSV
// formatting — at 256², 2 seeds, 128 samples and all four dtypes.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/matrix"
)

// campaignDigests holds "seed sha256" lines: the digest of a campaign's
// panel CSVs plus the Fig. 7 and Fig. 8 text, per workload seed.
//
//go:embed testdata/campaign.sha256
var campaignDigests string

const (
	campaignSize    = 256
	campaignSeeds   = 2
	campaignSamples = 128
	// tracedCampaigns is the fixed work of a traced run.
	tracedCampaigns = 2
)

// campaignConfig is the benchmark configuration; the workload seed
// pins the simulated VM instance (§III process variation).
func campaignConfig(seed uint64) experiments.Config {
	cfg := experiments.Default()
	cfg.Size = campaignSize
	cfg.Seeds = campaignSeeds
	cfg.SampleOutputs = campaignSamples
	cfg.VMInstance = seed
	return cfg
}

// campaignPass is one whole campaign: per-layer wall times, CPU time
// of each panel and of the whole pass, the number of result cells and
// the output digest.
type campaignPass struct {
	layers  map[string]time.Duration
	panelMS []float64
	cpu     time.Duration
	cells   int64
	digest  string
}

func runCampaign(opts options) (*report, error) {
	r := &report{}
	golden, err := parseDigests(campaignDigests)
	if err != nil {
		return nil, err
	}
	// Set-up is a warm-up campaign at 64², one seed: it builds the
	// lookup tables and code paths the timed campaigns reuse.
	warm := campaignConfig(opts.seed)
	warm.Size, warm.Seeds, warm.SampleOutputs = 64, 1, 32
	if _, err := timeSetups(r, func() (*campaignPass, error) { return runCampaignPass(warm) }, func(*campaignPass) {}); err != nil {
		return nil, err
	}

	cfg := campaignConfig(opts.seed)
	layers := map[string]time.Duration{}
	var cells int64
	var wallS float64
	start := time.Now()
	for n := 0; ; n++ {
		if opts.trace && n == tracedCampaigns {
			break
		}
		if !opts.trace && n >= 3 && time.Since(start).Seconds() >= opts.seconds {
			break
		}
		r.attempted++
		p, err := runCampaignPass(cfg)
		if err != nil {
			r.failed++
			r.problemf("campaign pass %d: %v", n, err)
			continue
		}
		for id, d := range p.layers {
			layers[id] += d
			wallS += d.Seconds()
		}
		r.passS = append(r.passS, p.cpu.Seconds())
		r.busyS += p.cpu.Seconds()
		r.opMS = append(r.opMS, p.panelMS...)
		r.tailMS = append(r.tailMS, percentile(p.panelMS, 99))
		r.items += p.cells
		cells = p.cells
		switch {
		case r.digest == "":
			r.digest = p.digest
		case p.digest != r.digest:
			r.problemf("campaign pass %d digest %s differs from pass 0 (%s)", n, p.digest, r.digest)
		}
	}
	r.heapMB = liveHeapMB()
	if want, ok := golden[opts.seed]; !ok {
		r.notef("campaign: no committed digest for seed %d; checked that every pass agrees", opts.seed)
	} else if r.digest != want {
		r.problemf("campaign digest %s, committed digest for seed %d is %s", r.digest, opts.seed, want)
	}
	r.notef("campaign: %d passes, median %.3f CPU s, mean %.3f wall s", len(r.passS), median(r.passS), wallS/float64(len(r.passS)))

	if opts.trace {
		passes := float64(len(r.passS))
		r.layers = map[string]float64{"experiments.cells": float64(cells)}
		var self time.Duration
		for id, d := range layers {
			r.layers["experiments."+id+"_s"] = d.Seconds() / passes
			self += d
		}
		r.layers["trace.coverage"] = self.Seconds() / wallS
	}
	return r, nil
}

// runCampaignPass runs the campaign once, timing each panel, Fig. 8
// and the formatting as separate layers. Their sum is the pass's wall
// time: nothing else runs in between. The CPU time of each panel and of
// the whole pass is recorded alongside.
func runCampaignPass(cfg experiments.Config) (*campaignPass, error) {
	p := &campaignPass{layers: map[string]time.Duration{}}
	var lastCPU time.Duration // CPU time of the latest timed layer
	timed := func(layer string, f func() error) error {
		c0, start := cpuNow(), time.Now()
		err := f()
		p.layers[layer] += time.Since(start)
		lastCPU = cpuNow() - c0
		p.cpu += lastCPU
		return err
	}

	var all []*experiments.FigureResult
	for _, exp := range experiments.Figures() {
		var fr *experiments.FigureResult
		err := timed(exp.ID, func() (err error) {
			fr, err = experiments.Run(exp, cfg)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp.ID, err)
		}
		p.panelMS = append(p.panelMS, float64(lastCPU)/1e6)
		for _, cells := range fr.Series {
			p.cells += int64(len(cells))
		}
		all = append(all, fr)
	}
	var fig7 *experiments.Fig7Result
	if err := timed("fig7", func() (err error) {
		fig7, err = experiments.RunFig7(cfg, experiments.PaperDevices(cfg.Size))
		return err
	}); err != nil {
		return nil, fmt.Errorf("fig7: %w", err)
	}
	p.panelMS = append(p.panelMS, float64(lastCPU)/1e6)
	for _, byExp := range fig7.Results {
		for _, cells := range byExp {
			p.cells += int64(len(cells))
		}
	}
	// Fig. 8 covers the sweep panels, not the runtime/energy tables.
	var fig8 *experiments.Fig8Result
	_ = timed("fig8", func() error {
		fig8 = experiments.BuildFig8(all[2:])
		return nil
	})

	var csvs, fig7Text, fig8Text string
	if err := timed("format", func() (err error) {
		csvs, fig7Text, fig8Text, err = formatCampaign(all, fig7, fig8)
		return err
	}); err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write([]byte(csvs))
	h.Write([]byte(fig7Text))
	h.Write([]byte(fig8Text))
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// formatCampaign renders what cmd/figures writes to disk — per-panel
// text and CSV, Fig. 7 text, Fig. 8 text and CSV, and the summary —
// and returns the concatenated panel CSVs and the Fig. 7 and Fig. 8
// text.
func formatCampaign(all []*experiments.FigureResult, fig7 *experiments.Fig7Result, fig8 *experiments.Fig8Result) (csvs, fig7Text, fig8Text string, err error) {
	var summary, csv strings.Builder
	for _, fr := range all {
		id := fr.Experiment.ID
		if id == "fig1" || id == "fig2" {
			summary.WriteString(experiments.FormatRuntimeTable(fr))
		} else {
			summary.WriteString(experiments.FormatFigure(fr))
		}
		if err := experiments.WriteCSV(&csv, fr); err != nil {
			return "", "", "", fmt.Errorf("%s csv: %w", id, err)
		}
	}
	fig8Text = experiments.FormatFig8(fig8)
	var f8csv strings.Builder
	if err := experiments.WriteFig8CSV(&f8csv, fig8); err != nil {
		return "", "", "", fmt.Errorf("fig8 csv: %w", err)
	}
	fig7Text = experiments.FormatFig7(fig7)
	summary.WriteString(fig8Text)
	summary.WriteString(fig7Text)
	for _, dt := range matrix.DTypes {
		best, bestID := 0.0, ""
		for _, fr := range all[2:] {
			if s := experiments.PowerSwing(fr.Series[dt]); s > best {
				best, bestID = s, fr.Experiment.ID
			}
		}
		fmt.Fprintf(&summary, "  %-7s %.1f%% (%s)\n", dt, best*100, bestID)
	}
	return csv.String(), fig7Text, fig8Text, nil
}

// parseDigests reads "seed sha256" lines; blank and '#' lines are
// skipped.
func parseDigests(s string) (map[uint64]string, error) {
	out := map[uint64]string{}
	sc := bufio.NewScanner(bytes.NewReader([]byte(s)))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("campaign digests: bad line %q", line)
		}
		seed, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign digests: bad seed in %q", line)
		}
		out[seed] = f[1]
	}
	return out, sc.Err()
}
