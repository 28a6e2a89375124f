package pool

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"staub/internal/core"
	"staub/internal/engine"
	"staub/internal/smt"
	"staub/internal/solver"
)

// FuzzDecodePeerJob throws arbitrary JSON at the peer job decoder, the
// one network-facing decoder of a peer's /v1/peer/solve body. Seeds are
// EncodeJob outputs for the wire tests' constraints and the repository's
// testdata scripts, as every job kind. The decoder must never panic;
// every job it accepts must pass the same knob validation as an HTTP
// request; and re-encoding an accepted job must decode again to the
// same cache key, so a peer re-derives the address it was sent.
func FuzzDecodePeerJob(f *testing.F) {
	srcs := []string{wireNIA, wireMixed}
	files, _ := filepath.Glob("../../testdata/*.smt2")
	for _, name := range files {
		if b, err := os.ReadFile(name); err == nil {
			srcs = append(srcs, string(b))
		}
	}
	for _, src := range srcs {
		c, err := smt.ParseScript(src)
		if err != nil {
			f.Fatalf("seed constraint: %v", err)
		}
		for _, j := range []engine.Job{
			{Kind: engine.KindSolve, Constraint: c, Profile: solver.Secunda, Timeout: time.Second, Deterministic: true},
			{Kind: engine.KindPipeline, Constraint: c, Config: core.Config{Timeout: time.Second, RefineRounds: 2, CubeVars: 3}},
			{Kind: engine.KindPortfolio, Constraint: c, Config: core.Config{Timeout: 2 * time.Second, FixedWidth: 16, OverApprox: true}},
		} {
			w := EncodeJob(j.Key(), j)
			got, err := DecodeJob(w)
			if err != nil || got.Key() != w.Key {
				f.Fatalf("seed job does not round-trip: %v", err)
			}
			blob, err := json.Marshal(w)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Add([]byte(`{"schema":1,"kind":1,"constraint":"(check-sat)","config":{"cube_vars":99}}`))
	f.Add([]byte(`{"schema":1,"kind":0,"constraint":"(check-sat)","timeout_ns":-1}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var w WireJob
		if json.Unmarshal(blob, &w) != nil {
			return
		}
		j, err := DecodeJob(w)
		if err != nil {
			return
		}
		cfg := j.Config
		if j.Kind == engine.KindSolve {
			cfg = core.Config{Timeout: j.Timeout, Profile: j.Profile}
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted a job that fails Validate: %v", err)
		}
		key := j.Key()
		again, err := DecodeJob(EncodeJob(key, j))
		if err != nil {
			t.Fatalf("re-encoded job does not decode: %v", err)
		}
		if got := again.Key(); got != key {
			t.Fatalf("re-encoded job key %s, want %s", got, key)
		}
	})
}
