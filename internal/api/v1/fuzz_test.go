package v1

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzDecodeRunRequest drives the HTTP boundary: /v1/run hands the raw
// request body to DecodeRunRequest. Any input must either fail with an
// error or decode to a normalized request — one that normalizes again
// to the same key and resolves or errors — and must never panic.
func FuzzDecodeRunRequest(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "run_result.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var env struct {
		Request json.RawMessage `json:"request"`
	}
	if err := json.Unmarshal(golden, &env); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(env.Request))
	minimal := `{"schema_version":"respin/v1","config":"sh-stt","bench":"fft","quota":2000}`
	f.Add([]byte(minimal))
	// Older clients and journals still send workers.
	f.Add([]byte(strings.Replace(minimal, `"quota"`, `"workers":4,"quota"`, 1)))
	f.Add([]byte(strings.Replace(minimal, `"quota"`, `"workers":-1,"quota"`, 1)))
	f.Add([]byte(`{"schema_version":"respin/v1","config":"PR-SRAM-NT","bench":"ocean","scale":"large","cluster":8,` +
		`"faults":{"seed":3,"sram_bitflip":-1,"ecc":"dected","kill_cores":2},` +
		`"endurance":{"budget":100000,"retention_cycles":20000,"wear_level":true},"timeout_ms":50}`))
	f.Add([]byte(`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","cluster":7}`))
	f.Add([]byte(`{"schema_version":"respin/v0","config":"SH-STT","bench":"fft"}`))
	f.Add([]byte(`{"schema_version":"respin/v1","config":"SH-STT","bench":"fft","bogus":1}`))
	f.Add([]byte(`{"schema_version":"respin/v1"} {}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := DecodeRunRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if req.Workers != 0 {
			t.Fatalf("decoded request kept workers=%d", req.Workers)
		}
		key := req.Key()
		again := req
		if err := again.Normalize(); err != nil {
			t.Fatalf("decoded request fails to re-normalize: %v\nbody: %q", err, body)
		}
		if k := again.Key(); k != key {
			t.Fatalf("normalize is not idempotent:\nfirst:  %s\nsecond: %s", key, k)
		}
		// A bad knob may still be refused here, but only with an error.
		_, _, _ = req.Resolve()
	})
}
