package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites testdata/golden_*.json from the current code:
//
//	go test ./internal/serve -run TestServeGolden -update
//
// A regeneration changes what the service answers; record it in
// CHANGES.md together with the reason.
var update = flag.Bool("update", false, "rewrite the serving golden bodies")

// goldenKeys spans all four device presets, all five datatypes and
// every DSL stage kind the service is asked about (gaussian, constant,
// set, sparsify, sort, flip) at small sizes.
var goldenKeys = []PredictRequest{
	{Device: "A100-PCIe-40GB", DType: "FP32", Pattern: "gaussian(default)", Size: 48},
	{Device: "H100-SXM5-80GB", DType: "FP16", Pattern: "constant(7)", Size: 32},
	{Device: "V100-SXM2-32GB", DType: "FP16-T", Pattern: "set(n=4, mean=0, std=210)", Size: 64},
	{Device: "QuadroRTX6000-24GB", DType: "INT8", Pattern: "gaussian(default) | sparsify(50%)", Size: 48},
	{Device: "A100-PCIe-40GB", DType: "BF16-T", Pattern: "gaussian(mean=3, std=2) | sort(rows, 50%)", Size: 64},
	{Device: "H100-SXM5-80GB", DType: "FP16", Pattern: "gaussian(default) | flip(0.25)", Size: 40},
	{Device: "V100-SXM2-32GB", DType: "FP16-T", Pattern: "constant(random) | flip(p=0.1) | sort(cols, 100%)", Size: 40},
	{Device: "QuadroRTX6000-24GB", DType: "INT8", Pattern: "set(n=2, mean=10, std=30) | sparsify(frac=0.25) | sort(withinrows, 100%)", Size: 32},
}

// goldenServeConfig is testConfig with a two-size training sweep, so
// the five (device, dtype) predictors the key set needs train quickly.
func goldenServeConfig() Config {
	cfg := testConfig()
	cfg.Training.Sizes = []int{32, 48}
	return cfg
}

// postBody posts body to url and returns the status and raw response.
func postBody(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// checkGolden compares got with testdata/name, or rewrites it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from the golden:\n got: %s\nwant: %s", name, got, want)
	}
}

// TestServeGolden pins the /predict and /predict/batch bodies byte for
// byte. The single-shot bodies run on one server in key order (a
// repeated key shows the cached flag); the batch runs on a fresh
// server, so every distinct key is simulated inside the batch, with a
// duplicate and an invalid item alongside.
func TestServeGolden(t *testing.T) {
	single := New(goldenServeConfig())
	defer single.Close()
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	var bodies bytes.Buffer
	for _, key := range append(goldenKeys, goldenKeys[0]) {
		code, body := postBody(t, ts.URL+"/predict", key)
		if code != http.StatusOK {
			t.Fatalf("%+v: status %d: %s", key, code, body)
		}
		bodies.Write(body)
	}
	checkGolden(t, "golden_predict.json", bodies.Bytes())

	batchSrv := New(goldenServeConfig())
	defer batchSrv.Close()
	tb := httptest.NewServer(batchSrv.Handler())
	defer tb.Close()
	reqs := append([]PredictRequest(nil), goldenKeys...)
	reqs = append(reqs, goldenKeys[2], PredictRequest{DType: "FP16", Size: 4096})
	code, body := postBody(t, tb.URL+"/predict/batch", BatchRequest{Requests: reqs})
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, body)
	}
	checkGolden(t, "golden_predict_batch.json", body)
}
