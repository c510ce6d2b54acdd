package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/traffic"
	"psigene/internal/webapp"
)

func TestRunFlagErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb, nil); err == nil {
		t.Fatal("missing -model/-upstream: want error")
	}
	if err := run([]string{"-model", "m.json"}, &sb, nil); err == nil {
		t.Fatal("missing -upstream: want error")
	}
	if err := run([]string{"-model", "m.json", "-upstream", "http://h", "-policy", "bogus"}, &sb, nil); err == nil {
		t.Fatal("bad -policy: want error")
	}
	if err := run([]string{"-model", "/nonexistent", "-upstream", "http://h"}, &sb, nil); err == nil {
		t.Fatal("missing model: want error")
	}
}

// TestDaemonEndToEnd boots the real daemon in front of the demo webapp:
// benign traffic passes, an injection is blocked with 403, the admin
// surface answers on its own token-guarded listener (and is absent from
// the data path), and the stop hook drains cleanly.
func TestDaemonEndToEnd(t *testing.T) {
	model, _ := trainedModel(t)
	up := httptest.NewServer(webapp.New(20))
	defer up.Close()

	hooks := &testHooks{
		ready:      make(chan string, 1),
		adminReady: make(chan string, 1),
		stop:       make(chan struct{}),
	}
	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-model", model, "-upstream", up.URL,
			"-listen", "127.0.0.1:0", "-admin-listen", "127.0.0.1:0",
			"-admin-token", "hunter2",
		}, &out, hooks)
	}()
	base := "http://" + <-hooks.ready
	adminBase := "http://" + <-hooks.adminReady

	get := func(base, path, token string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	if resp, _ := get(adminBase, "/-/healthz", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("admin without token: %d, want 401", resp.StatusCode)
	}
	if resp, _ := get(adminBase, "/-/healthz", "hunter2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if resp, _ := get(adminBase, "/-/readyz", "hunter2"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d", resp.StatusCode)
	}
	// The data path does not expose the control surface: /-/ goes to the
	// upstream like any other route (the webapp answers 404 for it).
	if resp, _ := get(base, "/-/statz", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("statz on data path: %d, want upstream 404", resp.StatusCode)
	}
	// A benign lookup proxies through to the webapp.
	resp, body := get(base, "/wavsep/Case1.jsp?id=3", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "<html>") {
		t.Fatalf("benign: %d %q", resp.StatusCode, body)
	}
	// The generation header carries the serving artifact's identity:
	// generation, manifest version and truncated content hash.
	if gen := resp.Header.Get("X-Psigene-Gen"); !strings.HasPrefix(gen, "1 v1 sha256:") {
		t.Fatalf("generation header %q", gen)
	}
	// A classic tautology is stopped at the gateway.
	resp, _ = get(base, "/wavsep/Case1.jsp?id=1%27%20or%20%271%27=%271", "")
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("injection: %d, want 403", resp.StatusCode)
	}
	if resp.Header.Get("X-Psigene-Signatures") == "" {
		t.Fatal("blocked response must name the matching signatures")
	}
	if resp, body := get(adminBase, "/-/statz", "hunter2"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"blocked": 1`) || !strings.Contains(body, `"modelVersion": "v1"`) {
		t.Fatalf("statz: %d %s", resp.StatusCode, body)
	}

	// Reload is confined to the model dir: names that resolve outside it
	// are rejected up front; a bare model file is refused while the old
	// generation keeps serving; the artifact's own name reloads fine.
	post := func(path string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, adminBase+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer hunter2")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/-/reload?path=" + url.QueryEscape("../../etc/passwd")); code != http.StatusBadRequest {
		t.Fatalf("traversal reload: %d, want 400", code)
	}
	if code := post("/-/reload?path=plain.json"); code != http.StatusInternalServerError {
		t.Fatalf("plain-file reload: %d, want 500", code)
	}
	if resp, _ := get(base, "/wavsep/Case1.jsp?id=4", ""); !strings.HasPrefix(resp.Header.Get("X-Psigene-Gen"), "1 v1 ") {
		t.Fatalf("after refused reload, serving %q, want generation 1", resp.Header.Get("X-Psigene-Gen"))
	}
	if code := post("/-/reload?path=v1"); code != http.StatusOK {
		t.Fatalf("reload: %d, want 200", code)
	}

	close(hooks.stop)
	if err := <-done; err != nil {
		t.Fatalf("daemon exit: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "drained, bye") {
		t.Fatalf("missing drain log:\n%s", out.String())
	}
}

// TestDaemonListenConflict covers the bind-failure path.
func TestDaemonListenConflict(t *testing.T) {
	model, _ := trainedModel(t)
	up := httptest.NewServer(webapp.New(5))
	defer up.Close()
	var sb strings.Builder
	err := run([]string{"-model", model, "-upstream", up.URL, "-listen", "256.256.256.256:1"}, &sb, nil)
	if err == nil {
		t.Fatal("unbindable address: want error")
	}
	_ = fmt.Sprint(err)
}

// TestDaemonRefusesPlainModelFile: a bare serialized model — valid model
// bytes with no manifest to verify them — is refused at startup, and the
// error names the artifact format the daemon wants instead.
func TestDaemonRefusesPlainModelFile(t *testing.T) {
	_, plain := trainedModel(t)
	var sb strings.Builder
	err := run([]string{"-model", plain, "-upstream", "http://127.0.0.1:1"}, &sb, nil)
	if err == nil || !strings.Contains(err.Error(), "artifact directory") {
		t.Fatalf("plain model file: want an artifact-format error, got %v", err)
	}
}

var (
	trainedOnce sync.Once
	trainedDir  string
	trainedErr  error
)

// trainedModel trains one small model per test binary and saves it twice
// in a shared directory: as artifact "v1" and as "plain.json", the bare
// serialized model the daemon must refuse. It returns both paths.
func trainedModel(t *testing.T) (artifact, plain string) {
	t.Helper()
	trainedOnce.Do(func() {
		attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 41).Requests(1200)
		benign := traffic.NewGenerator(42).Requests(1500)
		m, err := core.Train(attacks, benign, core.Config{})
		if err != nil {
			trainedErr = err
			return
		}
		// Not t.TempDir(): the model outlives the first test using it.
		if trainedDir, trainedErr = os.MkdirTemp("", "psigened-model-"); trainedErr != nil {
			return
		}
		if _, trainedErr = m.SaveArtifact(filepath.Join(trainedDir, "v1"), core.Manifest{Version: "v1"}); trainedErr != nil {
			return
		}
		var buf bytes.Buffer
		if trainedErr = m.Save(&buf); trainedErr != nil {
			return
		}
		trainedErr = os.WriteFile(filepath.Join(trainedDir, "plain.json"), buf.Bytes(), 0o644)
	})
	if trainedErr != nil {
		t.Fatalf("training model: %v", trainedErr)
	}
	return filepath.Join(trainedDir, "v1"), filepath.Join(trainedDir, "plain.json")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if trainedDir != "" {
		os.RemoveAll(trainedDir)
	}
	os.Exit(code)
}
