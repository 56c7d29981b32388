package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
)

// update rewrites testdata/golden_measurements.txt from the current
// code:
//
//	go test ./internal/core -run TestMeasureGolden -update
//
// A regeneration changes what the simulator measures; record it in
// CHANGES.md together with the reason.
var update = flag.Bool("update", false, "rewrite the measurement golden")

const goldenMeasurementsPath = "testdata/golden_measurements.txt"

// digestFields writes one line per leaf field of v: floats as their
// Float64bits, integers, booleans and strings verbatim. Walking the
// value by reflection means a field added to Measurement (or to the
// activity report it carries) shows up in the golden without this
// function changing.
func digestFields(b *strings.Builder, prefix string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		digestFields(b, prefix, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestFields(b, prefix+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			digestFields(b, fmt.Sprintf("%s[%d]", prefix, i), v.Index(i))
		}
	case reflect.Float64:
		fmt.Fprintf(b, "%s %016x\n", prefix, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		fmt.Fprintf(b, "%s %d\n", prefix, v.Int())
	case reflect.Bool:
		fmt.Fprintf(b, "%s %t\n", prefix, v.Bool())
	default:
		panic(fmt.Sprintf("digestFields: unhandled kind %v at %s", v.Kind(), prefix))
	}
}

// TestMeasureGolden pins every Measurement field bit for bit for
// MeasurePattern across all datatypes, both B layouts, and the default
// tile against one override.
func TestMeasureGolden(t *testing.T) {
	s, err := NewSimulator(device.A100PCIe())
	if err != nil {
		t.Fatal(err)
	}
	pat := patterns.MustParse("gaussian(default) | sparsify(10%)")
	tiles := []kernels.TileConfig{{}, {BlockM: 32, BlockN: 64, BlockK: 16}}
	var b strings.Builder
	for _, dt := range matrix.ExtendedDTypes {
		for _, transposeB := range []bool{true, false} {
			for _, tile := range tiles {
				opts := Options{TransposeB: transposeB, SampleOutputs: 64, Seed: 5, VMInstance: 1, Tile: tile}
				m, err := s.MeasurePattern(dt, 72, pat, opts)
				if err != nil {
					t.Fatal(err)
				}
				digestFields(&b, fmt.Sprintf("%v/transposeB=%t/tile=%dx%dx%d", dt, transposeB, tile.BlockM, tile.BlockN, tile.BlockK), reflect.ValueOf(*m))
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMeasurementsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenMeasurementsPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("measurement drifted at line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
