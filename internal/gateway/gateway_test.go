package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/resilience"
	"psigene/internal/traffic"
)

// stubDetector alerts on a lowercase needle in the decoded payload; it
// keeps the unit tests deterministic and independent of any ruleset.
type stubDetector struct{ needle string }

func (d stubDetector) Name() string { return "stub" }

func (d stubDetector) Inspect(req httpx.Request) ids.Verdict {
	p := strings.ToLower(httpx.DecodeComponent(req.Payload()))
	if d.needle != "" && strings.Contains(p, d.needle) {
		return ids.Verdict{Alert: true, Score: 1, Matched: []string{"stub-1"}}
	}
	return ids.Verdict{}
}

// panicDetector fails on every inspection, standing in for a corrupt
// signature set that slipped past load-time validation.
type panicDetector struct{}

func (panicDetector) Name() string                      { return "panics" }
func (panicDetector) Inspect(httpx.Request) ids.Verdict { panic("corrupt signature state") }

// echoUpstream answers 200 with "echo:<path>?<query>" and a marker header.
func echoUpstream() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Upstream", "echo")
		fmt.Fprintf(w, "echo:%s?%s", r.URL.Path, r.URL.RawQuery)
	}))
}

func mustGateway(t *testing.T, upstream string, det ids.Detector, opts Options) *Gateway {
	t.Helper()
	g, err := New(upstream, det, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func get(g *Gateway, target string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w
}

// adminGet hits the admin control surface, which lives on its own handler.
func adminGet(h http.Handler, target string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
	return w
}

// adminReload posts a reload for the given model name.
func adminReload(h http.Handler, name string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/-/reload?path="+url.QueryEscape(name), nil))
	return w
}

func TestNewValidation(t *testing.T) {
	if _, err := New("http://h", nil, Options{}); err == nil {
		t.Fatal("nil detector must be rejected")
	}
	if _, err := New("not a url\x00", stubDetector{}, Options{}); err == nil {
		t.Fatal("unparseable upstream must be rejected")
	}
	if _, err := New("/relative/path", stubDetector{}, Options{}); err == nil {
		t.Fatal("relative upstream must be rejected")
	}
}

func TestForwardAndBlock(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{needle: "union select"}, Options{})

	// Benign request passes through with the upstream's body and headers
	// plus the generation stamp.
	w := get(g, "/product.php?id=42")
	if w.Code != http.StatusOK {
		t.Fatalf("benign: status %d", w.Code)
	}
	if got := w.Body.String(); got != "echo:/product.php?id=42" {
		t.Fatalf("benign body %q", got)
	}
	if w.Header().Get("X-Upstream") != "echo" {
		t.Fatal("upstream headers not copied")
	}
	if w.Header().Get("X-Psigene-Gen") != "1" {
		t.Fatalf("generation header %q, want 1", w.Header().Get("X-Psigene-Gen"))
	}

	// Injection is blocked before the upstream sees it.
	w = get(g, "/product.php?id=1%27+UNION+SELECT+password+FROM+users--")
	if w.Code != http.StatusForbidden {
		t.Fatalf("attack: status %d, want 403", w.Code)
	}
	if sig := w.Header().Get("X-Psigene-Signatures"); sig != "stub-1" {
		t.Fatalf("signature header %q", sig)
	}

	s := g.Snapshot()
	if s.Forwarded != 1 || s.Blocked != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestBodyCap(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{MaxBodyBytes: 16})

	w := httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/login", strings.NewReader(strings.Repeat("a", 17))))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", w.Code)
	}
	// Exactly at the cap is fine.
	w = httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/login", strings.NewReader(strings.Repeat("a", 16))))
	if w.Code != http.StatusOK {
		t.Fatalf("body at cap: status %d, want 200", w.Code)
	}
	if s := g.Snapshot(); s.TooLarge != 1 || s.BodyErrors != 0 {
		t.Fatalf("cap counters: %+v", s)
	}
}

// brokenBody fails mid-read, like a client abort or malformed chunking.
type brokenBody struct{}

func (brokenBody) Read([]byte) (int, error) { return 0, fmt.Errorf("connection reset mid-body") }

// TestBodyReadErrorIsNot413: a transport failure while reading the body is
// the client's 400, not a 413 size violation, and counts separately.
func TestBodyReadErrorIsNot413(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	w := httptest.NewRecorder()
	g.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/login", brokenBody{}))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("broken body: status %d, want 400", w.Code)
	}
	if s := g.Snapshot(); s.BodyErrors != 1 || s.TooLarge != 0 {
		t.Fatalf("body-error counters: %+v", s)
	}
}

// captureDetector records the last request it inspected.
type captureDetector struct{ last *httpx.Request }

func (captureDetector) Name() string { return "capture" }

func (d captureDetector) Inspect(req httpx.Request) ids.Verdict {
	*d.last = req
	return ids.Verdict{}
}

// TestInboundHost: the scored request's Host comes from the Host header
// (r.Host, port stripped) — origin-form requests have an empty r.URL host.
func TestInboundHost(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	var last httpx.Request
	g := mustGateway(t, up.URL, captureDetector{last: &last}, Options{})

	r := httptest.NewRequest(http.MethodGet, "/p?id=1", nil)
	r.Host = "shop.example.com:8443"
	g.ServeHTTP(httptest.NewRecorder(), r)
	if last.Host != "shop.example.com" {
		t.Fatalf("scored Host %q, want shop.example.com", last.Host)
	}
}

// TestForwardedForChain: the gateway appends the client IP (no port) to an
// existing X-Forwarded-For chain instead of overwriting it.
func TestForwardedForChain(t *testing.T) {
	var seen string
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header.Get("X-Forwarded-For")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	r := httptest.NewRequest(http.MethodGet, "/p", nil) // RemoteAddr 192.0.2.1:1234
	r.Header.Set("X-Forwarded-For", "203.0.113.9")
	g.ServeHTTP(httptest.NewRecorder(), r)
	if seen != "203.0.113.9, 192.0.2.1" {
		t.Fatalf("upstream saw X-Forwarded-For %q, want \"203.0.113.9, 192.0.2.1\"", seen)
	}

	seen = ""
	g.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/p", nil))
	if seen != "192.0.2.1" {
		t.Fatalf("upstream saw X-Forwarded-For %q, want bare client IP", seen)
	}
}

// TestUpstreamRedirectPassesThrough: an upstream 3xx is the application's
// answer and reaches the client as sent — status, Location and
// Set-Cookie — instead of being followed by the gateway, unscored.
func TestUpstreamRedirectPassesThrough(t *testing.T) {
	var paths []string
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		paths = append(paths, r.URL.Path)
		if r.URL.Path == "/login" {
			http.SetCookie(w, &http.Cookie{Name: "session", Value: "abc123"})
			http.Redirect(w, r, "/account", http.StatusFound)
			return
		}
		fmt.Fprint(w, "account page")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	w := get(g, "/login?user=alice")
	if w.Code != http.StatusFound {
		t.Fatalf("status %d, want 302", w.Code)
	}
	if loc := w.Header().Get("Location"); loc != "/account" {
		t.Fatalf("Location %q, want /account", loc)
	}
	if c := w.Header().Get("Set-Cookie"); !strings.HasPrefix(c, "session=abc123") {
		t.Fatalf("Set-Cookie %q, want the session cookie", c)
	}
	if len(paths) != 1 || paths[0] != "/login" {
		t.Fatalf("upstream saw %v, want exactly [/login]", paths)
	}
}

// TestConnectionNamedHeadersNotForwarded: a header the client's
// Connection field names is hop-by-hop (RFC 9110 §7.6.1) and stops at
// the gateway, matched case-insensitively within a list.
func TestConnectionNamedHeadersNotForwarded(t *testing.T) {
	var seen http.Header
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = r.Header.Clone()
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	r := httptest.NewRequest(http.MethodGet, "/p", nil)
	r.Header.Set("Connection", "keep-alive, x-secret")
	r.Header.Set("X-Secret", "hop-only")
	r.Header.Set("X-Kept", "end-to-end")
	g.ServeHTTP(httptest.NewRecorder(), r)
	if v := seen.Get("X-Secret"); v != "" {
		t.Fatalf("upstream saw Connection-named X-Secret %q", v)
	}
	if v := seen.Get("X-Kept"); v != "end-to-end" {
		t.Fatalf("upstream saw X-Kept %q, want it forwarded", v)
	}
}

// TestConnectionNamedHeadersNotReturned: the same rule on the way back —
// a header the upstream's Connection field names never reaches the client.
func TestConnectionNamedHeadersNotReturned(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "X-Upstream-Secret")
		w.Header().Set("X-Upstream-Secret", "hop-only")
		w.Header().Set("X-Kept", "end-to-end")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	w := get(g, "/p")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if v := w.Header().Get("X-Upstream-Secret"); v != "" {
		t.Fatalf("client saw Connection-named X-Upstream-Secret %q", v)
	}
	if v := w.Header().Get("X-Kept"); v != "end-to-end" {
		t.Fatalf("client saw X-Kept %q, want it returned", v)
	}
}

func TestResponseCap(t *testing.T) {
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(make([]byte, 100))
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{MaxResponseBytes: 64, DisableBreaker: true})
	if w := get(g, "/big"); w.Code != http.StatusBadGateway {
		t.Fatalf("oversized response: status %d, want 502", w.Code)
	}
}

func TestScorePanicPolicies(t *testing.T) {
	up := echoUpstream()
	defer up.Close()

	// Fail-open: the request is forwarded unscored, flagged as degraded.
	open := mustGateway(t, up.URL, panicDetector{}, Options{Policy: FailOpen})
	w := get(open, "/x?a=1")
	if w.Code != http.StatusOK {
		t.Fatalf("fail-open: status %d, want 200", w.Code)
	}
	if w.Header().Get("X-Psigene-Degraded") != "unscored" {
		t.Fatal("fail-open response must be marked degraded")
	}
	if s := open.Snapshot(); s.ScorePanics != 1 || s.FailedOpen != 1 {
		t.Fatalf("fail-open counters: %+v", s)
	}

	// Fail-closed: the request dies with 403.
	closed := mustGateway(t, up.URL, panicDetector{}, Options{Policy: FailClosed})
	if w := get(closed, "/x?a=1"); w.Code != http.StatusForbidden {
		t.Fatalf("fail-closed: status %d, want 403", w.Code)
	}
	if s := closed.Snapshot(); s.ScorePanics != 1 || s.FailedClosed != 1 {
		t.Fatalf("fail-closed counters: %+v", s)
	}
}

func TestAdminEndpoints(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})
	admin := g.Admin(AdminConfig{ModelDir: t.TempDir()})

	if w := adminGet(admin, "/-/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz: %d", w.Code)
	}
	if w := adminGet(admin, "/-/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz: %d", w.Code)
	}
	if w := adminGet(admin, "/-/nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown admin path: %d", w.Code)
	}
	if w := adminGet(admin, "/-/reload"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d, want 405", w.Code)
	}
	w := httptest.NewRecorder()
	admin.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/-/reload", nil))
	if w.Code != http.StatusBadRequest {
		t.Fatalf("reload without path: %d, want 400", w.Code)
	}

	var snap Snapshot
	if err := json.Unmarshal(adminGet(admin, "/-/statz").Body.Bytes(), &snap); err != nil {
		t.Fatalf("statz JSON: %v", err)
	}
	if snap.Detector != "stub" || snap.Generation != 1 {
		t.Fatalf("statz: %+v", snap)
	}

	// Admin stays reachable while draining; readyz flips to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if w := adminGet(admin, "/-/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", w.Code)
	}
	if w := adminGet(admin, "/-/readyz"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", w.Code)
	}
	if w := get(g, "/anything"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("proxy while draining: %d, want 503", w.Code)
	}
}

// TestAdminNotOnDataPath pins the listener split: /-/ paths on the proxy
// are ordinary upstream routes (no shadowing, no public control surface).
func TestAdminNotOnDataPath(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	for _, path := range []string{"/-/healthz", "/-/statz", "/-/reload", "/-/app-route"} {
		w := get(g, path)
		if w.Code != http.StatusOK || w.Body.String() != "echo:"+path+"?" {
			t.Fatalf("%s on the data path: %d %q, want proxied echo", path, w.Code, w.Body.String())
		}
	}
	if s := g.Snapshot(); s.Forwarded != 4 {
		t.Fatalf("/-/ requests not proxied: %+v", s)
	}
}

func TestAdminBearerToken(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})
	admin := g.Admin(AdminConfig{Token: "s3cret"})

	hit := func(auth string) int {
		r := httptest.NewRequest(http.MethodGet, "/-/statz", nil)
		if auth != "" {
			r.Header.Set("Authorization", auth)
		}
		w := httptest.NewRecorder()
		admin.ServeHTTP(w, r)
		return w.Code
	}
	if code := hit(""); code != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", code)
	}
	if code := hit("Bearer wrong"); code != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d, want 401", code)
	}
	if code := hit("s3cret"); code != http.StatusUnauthorized {
		t.Fatalf("bare token without scheme: %d, want 401", code)
	}
	if code := hit("Bearer s3cret"); code != http.StatusOK {
		t.Fatalf("correct token: %d, want 200", code)
	}
}

// trainedModel trains a small model once and saves it as artifact "v1"
// for the reload tests.
var (
	trainedOnce sync.Once
	trainedDir  string
	trainedPath string
	trainedErr  error
)

func trainedModel(t *testing.T) string {
	t.Helper()
	trainedOnce.Do(func() {
		attacks := attackgen.NewGenerator(attackgen.CrawlProfile(), 11).Requests(1200)
		benign := traffic.NewGenerator(12).Requests(1500)
		m, err := core.Train(attacks, benign, core.Config{})
		if err != nil {
			trainedErr = err
			return
		}
		// Not t.TempDir(): the model outlives the first test that trains
		// it, so it needs a directory with package-test lifetime.
		dir, err := os.MkdirTemp("", "gateway-model-")
		if err != nil {
			trainedErr = err
			return
		}
		trainedDir = dir
		trainedPath = filepath.Join(dir, "v1")
		_, trainedErr = m.SaveArtifact(trainedPath, core.Manifest{Version: "v1"})
	})
	if trainedErr != nil {
		t.Fatalf("training model: %v", trainedErr)
	}
	return trainedPath
}

// saveArtifact writes the trained model as artifact dir/name, versioned
// name, and returns its path.
func saveArtifact(t *testing.T, dir, name string) string {
	t.Helper()
	m, _, err := core.LoadArtifact(trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if _, err := m.SaveArtifact(path, core.Manifest{Version: name}); err != nil {
		t.Fatal(err)
	}
	return path
}

// tamper truncates an artifact's model mid-document after its manifest
// was written, as a half-finished copy would.
func tamper(t *testing.T, artifact string) {
	t.Helper()
	writeFile(t, filepath.Join(artifact, core.ModelFile), `{"version": 1, "features": [{"na`)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if trainedDir != "" {
		os.RemoveAll(trainedDir)
	}
	os.Exit(code)
}

func TestReloadSwapsGeneration(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})
	path := trainedModel(t)
	admin := g.Admin(AdminConfig{ModelDir: filepath.Dir(path)})

	w := adminReload(admin, filepath.Base(path))
	if w.Code != http.StatusOK {
		t.Fatalf("reload: %d: %s", w.Code, w.Body.String())
	}
	det, gen := g.Detector()
	if gen != 2 {
		t.Fatalf("generation %d, want 2", gen)
	}
	if det.Name() == "stub" {
		t.Fatal("detector not swapped")
	}
	// Reloaded models are artifact-tagged: generation, then the manifest
	// version and the content hash.
	gotGen := get(g, "/p?id=1").Header().Get("X-Psigene-Gen")
	if !strings.HasPrefix(gotGen, "2 v1 sha256:") {
		t.Fatalf("request scored by generation %q, want 2 with model tags", gotGen)
	}
}

func TestFailedReloadKeepsOldDetector(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{needle: "union select"}, Options{})

	// Three pushes that must all be refused: an artifact whose model was
	// truncated after its manifest was written, a bare model file (valid
	// model bytes, but no manifest or hash to verify them against), and a
	// name that does not exist.
	dir := t.TempDir()
	tamper(t, saveArtifact(t, dir, "tampered"))
	plain, err := os.ReadFile(filepath.Join(trainedModel(t), core.ModelFile))
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "plain.json"), string(plain))
	var log strings.Builder
	admin := g.Admin(AdminConfig{ModelDir: dir, Log: &log})

	names := []string{"tampered", "plain.json", "missing"}
	for _, name := range names {
		w := adminReload(admin, name)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("reload %s: %d, want 500", name, w.Code)
		}
		// Loader detail goes to the admin log, not the response: the
		// endpoint must not be a file-existence/parse oracle.
		for _, leak := range []string{dir, "JSON", "no such file"} {
			if strings.Contains(w.Body.String(), leak) {
				t.Fatalf("reload %s echoed loader detail %q: %s", name, leak, w.Body.String())
			}
		}
	}
	for _, name := range names {
		if !strings.Contains(log.String(), name) {
			t.Fatalf("reload failure %s not logged:\n%s", name, log.String())
		}
	}
	if !strings.Contains(log.String(), "not a model artifact directory") {
		t.Fatalf("plain-file reload not explained in the log:\n%s", log.String())
	}
	// A detector that panics on probe is rejected before the swap.
	if _, err := g.Swap(panicDetector{}); err == nil {
		t.Fatal("panicking candidate must be rejected by probe")
	}

	// The original detector still serves, on its original generation.
	det, gen := g.Detector()
	if det.Name() != "stub" || gen != 1 {
		t.Fatalf("detector %q gen %d after failed reloads, want stub gen 1", det.Name(), gen)
	}
	if w := get(g, "/p?id=1+union+select+2"); w.Code != http.StatusForbidden {
		t.Fatalf("old detector no longer blocking: %d", w.Code)
	}
	if s := g.Snapshot(); s.ReloadFailures != 4 || s.Reloads != 0 {
		t.Fatalf("reload counters: %+v", s)
	}
}

// TestReloadConfinedToModelDir: the ?path= parameter is a name inside the
// configured model directory, never an arbitrary filesystem path.
func TestReloadConfinedToModelDir(t *testing.T) {
	up := echoUpstream()
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})
	path := trainedModel(t)

	admin := g.Admin(AdminConfig{ModelDir: t.TempDir()})
	for _, name := range []string{path, "../" + filepath.Base(path), "/etc/passwd", ".."} {
		if w := adminReload(admin, name); w.Code != http.StatusBadRequest {
			t.Fatalf("escaping reload path %q: %d, want 400", name, w.Code)
		}
	}
	// With no model dir configured, reload is off entirely.
	noDir := g.Admin(AdminConfig{})
	if w := adminReload(noDir, "model.json"); w.Code != http.StatusForbidden {
		t.Fatalf("reload without model dir: %d, want 403", w.Code)
	}
	if _, gen := g.Detector(); gen != 1 {
		t.Fatalf("generation moved to %d on rejected reloads", gen)
	}
}

func TestMidFlightReloadFinishesOnStartingDetector(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		if r.URL.Path == "/slow" {
			<-release
		}
		fmt.Fprint(w, "done")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{})

	first := make(chan string)
	go func() {
		w := get(g, "/slow?id=1")
		first <- w.Header().Get("X-Psigene-Gen")
	}()
	<-entered // request 1 is mid-flight, scored by generation 1

	if _, err := g.Swap(stubDetector{needle: "evil"}); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	// A request admitted after the swap runs on generation 2 while the
	// first request is still in flight on generation 1.
	if w := get(g, "/fast?id=1"); w.Header().Get("X-Psigene-Gen") != "2" {
		t.Fatalf("post-swap request on generation %q, want 2", w.Header().Get("X-Psigene-Gen"))
	}
	close(release)
	if gen := <-first; gen != "1" {
		t.Fatalf("in-flight request finished on generation %q, want 1", gen)
	}
}

func TestBreakerOpensOnDeadUpstream(t *testing.T) {
	up := echoUpstream()
	up.Close() // dead: every round trip is a transport error
	g := mustGateway(t, up.URL, stubDetector{}, Options{
		BreakerThreshold: 3, BreakerCooldown: 2, UpstreamTimeout: 500 * time.Millisecond,
	})

	// First 3 requests fail through to the upstream and trip the breaker.
	for i := 0; i < 3; i++ {
		if w := get(g, fmt.Sprintf("/r?i=%d", i)); w.Code != http.StatusBadGateway {
			t.Fatalf("request %d: %d, want 502", i, w.Code)
		}
	}
	// The next 2 are rejected locally while the breaker cools down.
	for i := 0; i < 2; i++ {
		w := get(g, fmt.Sprintf("/r?i=%d", 10+i))
		if w.Code != http.StatusServiceUnavailable {
			t.Fatalf("cooldown request %d: %d, want 503", i, w.Code)
		}
		if w.Header().Get("Retry-After") == "" {
			t.Fatal("breaker rejection must carry Retry-After")
		}
	}
	s := g.Snapshot()
	if s.UpstreamErrors != 3 || s.BreakerRejected != 2 {
		t.Fatalf("counters: %+v", s)
	}
	// Cooldown budget spent; the next Allow flips to half-open and probes.
	if s.Breaker == nil || s.Breaker.State != resilience.BreakerOpen || s.Breaker.Remaining != 0 {
		t.Fatalf("breaker state: %+v", s.Breaker)
	}
}

func TestBreakerRecovers(t *testing.T) {
	var dead bool
	var mu sync.Mutex
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		d := dead
		mu.Unlock()
		if d {
			panic(http.ErrAbortHandler) // connection reset
		}
		fmt.Fprint(w, "ok")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{
		BreakerThreshold: 2, BreakerCooldown: 1, UpstreamTimeout: 2 * time.Second,
	})

	mu.Lock()
	dead = true
	mu.Unlock()
	for i := 0; i < 2; i++ {
		get(g, "/r") // transport failures: breaker trips
	}
	if w := get(g, "/r"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: %d, want 503", w.Code)
	}
	mu.Lock()
	dead = false
	mu.Unlock()
	// Cooldown spent, the half-open probe succeeds and the breaker closes.
	if w := get(g, "/r"); w.Code != http.StatusOK {
		t.Fatalf("half-open probe: %d, want 200", w.Code)
	}
	if w := get(g, "/r"); w.Code != http.StatusOK {
		t.Fatalf("closed again: %d, want 200", w.Code)
	}
}

func TestOverloadSheds(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprint(w, "slow")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{MaxInFlight: 2, RetryAfter: 7})

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			done <- get(g, "/slow").Code
		}()
	}
	<-entered
	<-entered // both slots held mid-upstream

	w := get(g, "/shed-me")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") != "7" {
		t.Fatalf("Retry-After %q, want 7", w.Header().Get("Retry-After"))
	}
	close(release)
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("admitted request finished %d", code)
		}
	}
	if s := g.Snapshot(); s.Shed != 1 || s.Forwarded != 2 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestDrainWaitsForInFlight(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		fmt.Fprint(w, "ok")
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{MaxInFlight: 4})

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			done <- get(g, "/inflight").Code
		}()
	}
	<-entered
	<-entered

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- g.Drain(ctx)
	}()

	// Wait for the drain flag before poking the data path: a request that
	// slipped in pre-drain would block on the gated upstream forever.
	admin := g.Admin(AdminConfig{})
	for adminGet(admin, "/-/readyz").Code != http.StatusServiceUnavailable {
	}
	if w := get(g, "/late"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request admitted: %d", w.Code)
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with requests still in flight", err)
	default:
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Both in-flight requests completed; none were dropped.
	for i := 0; i < 2; i++ {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("in-flight request finished %d during drain", code)
		}
	}
}

func TestDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	}))
	defer up.Close()
	g := mustGateway(t, up.URL, stubDetector{}, Options{MaxInFlight: 2})

	go get(g, "/stuck")
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	if err := g.Drain(ctx); err == nil {
		t.Fatal("Drain must report an expired context")
	}
	close(release)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
