package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/portal"
)

func TestRunUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("no args: want usage error")
	}
	if err := run([]string{"bogus"}, &sb); err == nil {
		t.Fatal("unknown subcommand: want error")
	}
	if err := run([]string{"inspect"}, &sb); err == nil {
		t.Fatal("inspect without -url: want error")
	}
	if err := run([]string{"crawl"}, &sb); err == nil {
		t.Fatal("crawl without -portals: want error")
	}
}

func TestTrainInspectEvalCycle(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model")
	var out strings.Builder
	err := run([]string{"train", "-attacks", "500", "-benign", "1200", "-out", model}, &out)
	if err != nil {
		t.Fatalf("train: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "signatures over") {
		t.Fatalf("train output missing summary:\n%s", out.String())
	}

	// The global profiling flags sit before the subcommand and must leave
	// subcommand behavior untouched while writing both profile files.
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	out.Reset()
	err = run([]string{"-cpuprofile", cpu, "-memprofile", mem,
		"inspect", "-model", model, "-url", "/p.php?id=1%27+or+%271%27=%271"}, &out)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if !strings.Contains(out.String(), "ALERT") {
		t.Fatalf("tautology should alert:\n%s", out.String())
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err %v)", p, err)
		}
	}

	out.Reset()
	err = run([]string{"inspect", "-model", model, "-url", "/search?q=hello+world"}, &out)
	if err != nil {
		t.Fatalf("inspect benign: %v", err)
	}
	if !strings.Contains(out.String(), "clean") {
		t.Fatalf("benign should be clean:\n%s", out.String())
	}

	out.Reset()
	err = run([]string{"eval", "-model", model, "-attacks", "100", "-benign", "500"}, &out)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	for _, want := range []string{"sqlmap", "arachni", "vega", "FPR"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("eval output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCrawlThenTrainFromSamples(t *testing.T) {
	gen := attackgen.NewGenerator(attackgen.CrawlProfile(), 1)
	p := portal.New("exploit-db", portal.StyleHTML, 10, portal.GenerateEntries(gen, 30))
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	dir := t.TempDir()
	samples := filepath.Join(dir, "samples.txt")
	var out strings.Builder
	if err := run([]string{"crawl", "-portals", srv.URL, "-out", samples}, &out); err != nil {
		t.Fatalf("crawl: %v", err)
	}
	data, err := os.ReadFile(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 10 {
		t.Fatalf("too few crawled samples:\n%s", data)
	}

	// Training from a sample file exercises readSampleFile. A crawl this
	// small may not cover 5%-sized clusters, so just require it to run or
	// fail gracefully.
	model := filepath.Join(dir, "model")
	out.Reset()
	err = run([]string{"train", "-samples", samples, "-benign", "1200", "-out", model}, &out)
	if err != nil {
		t.Logf("train from tiny crawl failed (acceptable): %v", err)
		return
	}
	if _, err := os.Stat(model); err != nil {
		t.Fatalf("model not written: %v", err)
	}
}

func TestReadSampleFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.txt")
	content := `# comment
http://x.com/a.php?id=1' or 1=1

not-a-url-without-query
http://y.com/b.php?q=union+select
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	reqs, err := readSampleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 {
		t.Fatalf("got %d requests, want 2", len(reqs))
	}
	for _, r := range reqs {
		if !r.Malicious {
			t.Fatal("file samples must be labeled malicious")
		}
	}
	if _, err := readSampleFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file: want error")
	}
}

func TestExportSubcommand(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model")
	bro := filepath.Join(dir, "psigene.bro")
	var out strings.Builder
	if err := run([]string{"train", "-attacks", "400", "-benign", "1000", "-out", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	out.Reset()
	if err := run([]string{"export", "-model", model, "-out", bro}, &out); err != nil {
		t.Fatalf("export: %v", err)
	}
	data, err := os.ReadFile(bro)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "module PSigene;") {
		t.Fatalf("exported script malformed:\n%s", data[:200])
	}
}

// TestTuneSubcommand: train then tune writes a second artifact whose
// manifest names the trained version as its parent, and training again
// into an existing -out is refused, leaving the artifact untouched.
func TestTuneSubcommand(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "v1")
	tuned := filepath.Join(dir, "v1-tuned")
	var out strings.Builder
	if err := run([]string{"train", "-attacks", "400", "-benign", "1000", "-out", model}, &out); err != nil {
		t.Fatalf("train: %v", err)
	}
	out.Reset()
	err := run([]string{"tune", "-model", model, "-out", tuned, "-attacks", "100", "-benign", "800"}, &out)
	if err != nil {
		t.Fatalf("tune: %v", err)
	}
	if !strings.Contains(out.String(), "threshold") {
		t.Fatalf("tune output:\n%s", out.String())
	}
	_, man, err := core.LoadArtifact(tuned)
	if err != nil {
		t.Fatalf("tuned artifact: %v", err)
	}
	if man.Version != "v1-tuned" || man.Parent != "v1" {
		t.Fatalf("tuned manifest version %q parent %q, want v1-tuned from v1", man.Version, man.Parent)
	}

	before, err := core.ReadManifest(model)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"train", "-attacks", "300", "-benign", "800", "-seed", "2", "-out", model}, &out)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("second train into %s: want refusal, got %v", model, err)
	}
	if after, err := core.ReadManifest(model); err != nil || after != before {
		t.Fatalf("artifact changed by refused train: %+v -> %+v (%v)", before, after, err)
	}
}
