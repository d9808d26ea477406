package debughttp

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs/metrics"
)

func TestHandlerServesProfilesAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("probe_total", "", "A probe counter.").Add(3)
	srv := httptest.NewServer(Handler(Metrics(reg)))
	defer srv.Close()

	for _, tc := range []struct{ path, contentType, body string }{
		{"/debug/pprof/", "text/html", "goroutine"},
		{"/metrics", "text/plain; version=0.0.4", "probe_total 3"},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", tc.path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, tc.contentType) {
			t.Errorf("GET %s: Content-Type %q, want %q", tc.path, ct, tc.contentType)
		}
		if !strings.Contains(string(body), tc.body) {
			t.Errorf("GET %s: body lacks %q:\n%s", tc.path, tc.body, body)
		}
	}
}
