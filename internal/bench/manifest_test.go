package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// TestManifestLoads pins the committed manifest: it must parse, validate,
// and register the benches CI depends on — including the trace-replay bench
// over the HTTP front-end.
func TestManifestLoads(t *testing.T) {
	m, err := LoadManifest("manifest.json")
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if m.Threshold <= 0 {
		t.Fatalf("threshold = %v", m.Threshold)
	}
	byName := map[string]*ManifestEntry{}
	for i := range m.Entries {
		e := &m.Entries[i]
		byName[e.Name] = e
		// Every probe dir and every file argument must exist in this
		// checkout — a renamed cmd or moved trace must fail here.
		if _, err := os.Stat(filepath.Join("..", "..", e.Dir)); err != nil {
			t.Errorf("entry %s: dir %s: %v", e.Name, e.Dir, err)
		}
		for _, arg := range e.Command("/dev/null") {
			if filepath.Ext(arg) == ".jsonl" {
				if _, err := os.Stat(filepath.Join("..", "..", arg)); err != nil {
					t.Errorf("entry %s: trace %s: %v", e.Name, arg, err)
				}
			}
		}
		// A cmd/bench entry runs a registered scenario into its
		// BENCH_<scenario>.json trajectory file.
		if argv := e.Command("{out}"); e.Dir == "cmd/bench" {
			if len(argv) < 4 || scenarios[argv[3]] == nil || e.Out != "BENCH_"+argv[3]+".json" {
				t.Errorf("entry %s: %v does not run a registered scenario into %s", e.Name, argv, e.Out)
			}
		}
	}
	for _, want := range []string{"shardburst", "pipeline", "fairshare", "traceoverhead", "submitpath", "overload", "checkpoint", "traceload"} {
		if byName[want] == nil {
			t.Errorf("entry %q missing from manifest", want)
		}
	}
	if e := byName["traceload"]; e != nil {
		if e.OutFile(".head") != "BENCH_traceload.head.json" {
			t.Errorf("traceload OutFile(.head) = %q", e.OutFile(".head"))
		}
		argv := e.Command("BENCH_traceload.json")
		found := false
		for _, a := range argv {
			if a == "BENCH_traceload.json" {
				found = true
			}
		}
		if !found {
			t.Errorf("traceload Command did not substitute {out}: %v", argv)
		}
	}
}

// TestManifestValidation exercises the rejection paths with synthetic
// manifests.
func TestManifestValidation(t *testing.T) {
	write := func(t *testing.T, text string) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "m.json")
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	ok := `{"threshold":0.25,"entries":[{"name":"a","dir":"cmd/a","cmd":"go run ./cmd/a -json {out}","out":"BENCH_a.json","title":"a","metrics":["x:higher"]}]}`
	if _, err := LoadManifest(write(t, ok)); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	bad := map[string]string{
		"no threshold": `{"entries":[{"name":"a","dir":"d","cmd":"x {out}","out":"BENCH_a.json","metrics":["x:higher"]}]}`,
		"no entries":   `{"threshold":0.25,"entries":[]}`,
		"no out slot":  `{"threshold":0.25,"entries":[{"name":"a","dir":"d","cmd":"x","out":"BENCH_a.json","metrics":["x:higher"]}]}`,
		"bad metric":   `{"threshold":0.25,"entries":[{"name":"a","dir":"d","cmd":"x {out}","out":"BENCH_a.json","metrics":["x:sideways"]}]}`,
		"no metrics":   `{"threshold":0.25,"entries":[{"name":"a","dir":"d","cmd":"x {out}","out":"BENCH_a.json","metrics":[]}]}`,
		"dup name":     `{"threshold":0.25,"entries":[{"name":"a","dir":"d","cmd":"x {out}","out":"BENCH_a.json","metrics":["x:higher"]},{"name":"a","dir":"d","cmd":"x {out}","out":"BENCH_b.json","metrics":["x:higher"]}]}`,
		"dup out":      `{"threshold":0.25,"entries":[{"name":"a","dir":"d","cmd":"x {out}","out":"BENCH_a.json","metrics":["x:higher"]},{"name":"b","dir":"d","cmd":"x {out}","out":"BENCH_a.json","metrics":["x:higher"]}]}`,
		"out not json": `{"threshold":0.25,"entries":[{"name":"a","dir":"d","cmd":"x {out}","out":"BENCH_a.txt","metrics":["x:higher"]}]}`,
	}
	for name, text := range bad {
		if _, err := LoadManifest(write(t, text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
