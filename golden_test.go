package beholder

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update regenerates the golden masters instead of diffing against
// them:
//
//	go test -run TestGoldenExperiments -update .
//
// Regenerate only when an intentional change to the evaluation's output
// lands, and review the diff like any other code change.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current evaluation output")

// goldenOptions is the small deterministic configuration the golden
// suite renders: every table and figure in under a second, with results
// that are byte-stable across platforms and worker counts (everything
// downstream of the seed runs in virtual time).
func goldenOptions() ExpOptions {
	return ExpOptions{Seed: 2018, Scale: 0.15, Small: true, Rate: 8000}
}

// graphUnionDigest holds the SHA-256 of Experiments.GraphUnion()'s
// canonical NDJSON under goldenOptions.
var graphUnionDigest = filepath.Join("testdata", "graph-union.sha256")

// goldenName maps a renderable's ID to its golden file, keeping the
// paper-order index so the directory listing reads like the evaluation.
func goldenName(i int, id string) string {
	slug := strings.ToLower(id)
	slug = strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '.':
			return r
		case r == ' ':
			return '-'
		}
		return -1 // drop punctuation and non-ASCII (section signs)
	}, slug)
	return filepath.Join("testdata", "golden", pad2(i)+"-"+slug+".txt")
}

// renderableID extracts the ID field shared by Table and Figure.
func renderableID(r Renderable) string {
	switch v := r.(type) {
	case *Table:
		return v.ID
	case *Figure:
		return v.ID
	}
	return "renderable"
}

// TestGoldenExperiments renders the complete evaluation —
// Experiments.All() under the small deterministic config — against the
// checked-in golden masters. A refactor that claims output equivalence
// proves it here, byte for byte, instead of re-asserting table shapes
// ad hoc; an intentional output change regenerates with -update and
// reviews the diff.
func TestGoldenExperiments(t *testing.T) {
	e := NewExperiments(goldenOptions())
	rendered := e.All()

	if *update {
		if err := os.RemoveAll(filepath.Join("testdata", "golden")); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	seen := make(map[string]bool)
	for i, r := range rendered {
		name := goldenName(i, renderableID(r))
		if seen[name] {
			t.Fatalf("duplicate golden name %s", name)
		}
		seen[name] = true
		got := r.Render()
		if *update {
			if err := os.WriteFile(name, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("missing golden master %s (run: go test -run TestGoldenExperiments -update .): %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s: output differs from golden master\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
		}
	}

	// The graph study's cross-vantage union is what cmd/beholder -graph
	// exports; its golden table only pins counts, so pin the canonical
	// NDJSON bytes by digest.
	var buf bytes.Buffer
	if err := e.GraphUnion().WriteNDJSON(&buf, e.Internet().Universe().Table()); err != nil {
		t.Fatal(err)
	}
	digest := fmt.Sprintf("%x\n", sha256.Sum256(buf.Bytes()))
	if *update {
		if err := os.WriteFile(graphUnionDigest, []byte(digest), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if want, err := os.ReadFile(graphUnionDigest); err != nil {
		t.Fatalf("missing %s (run: go test -run TestGoldenExperiments -update .): %v", graphUnionDigest, err)
	} else if digest != string(want) {
		t.Errorf("graph union NDJSON digest %s differs from %s", strings.TrimSpace(digest), graphUnionDigest)
	}

	// Any golden file not produced this run is stale.
	if !*update {
		entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			name := filepath.Join("testdata", "golden", ent.Name())
			if !seen[name] {
				t.Errorf("stale golden master %s (renderable no longer produced; run -update)", name)
			}
		}
	}
}
