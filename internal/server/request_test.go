package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// cellRequest fills req's config document and hash from a named model, as
// the coordinator does before dispatching a cell.
func cellRequest(tb testing.TB, model string, req CellRequest) CellRequest {
	tb.Helper()
	cfg, err := core.ModelConfig(model)
	if err != nil {
		tb.Fatal(err)
	}
	if req.Config, err = pipeline.EncodeConfigV2(cfg); err != nil {
		tb.Fatal(err)
	}
	if req.ConfigHash, err = pipeline.CanonicalHash(cfg); err != nil {
		tb.Fatal(err)
	}
	return req
}

// TestCellAuditCheckedOnWarmMemo: POST /v1/cells refuses an unknown audit
// level with 400 whether or not the cell's result is already in the
// worker's memo.
func TestCellAuditCheckedOnWarmMemo(t *testing.T) {
	_, ts := newTestServer(t, Config{Role: RoleWorker, NodeID: "w1", CacheCells: 64})
	req := cellRequest(t, "see", CellRequest{Benchmark: "compress", Insts: 2000})
	for _, step := range []struct {
		memo, audit string
		want        int
	}{
		{"cold", "bogus", http.StatusBadRequest},
		{"cold", "", http.StatusOK},
		{"warm", "bogus", http.StatusBadRequest},
	} {
		req.Audit = step.audit
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != step.want {
			t.Fatalf("%s memo, audit %q: HTTP %d, want %d: %s", step.memo, step.audit, resp.StatusCode, step.want, data)
		}
	}
}

// FuzzRequestDecoders feeds each input to every request body polyserve
// decodes from an untrusted client: a JobRequest (POST /v1/jobs) and a
// worker's CellRequest (POST /v1/cells). Each value decodeBody accepts
// then meets the checks its handler runs before any simulation. An input
// must either be refused with an error, or its value must re-encode
// (EncodeRequest, then decodeBody) to a fixed point that passes the same
// checks. Nothing may panic. The re-encoding uses EncodeRequest, as the
// Go client does, so longTitleBody's 200,000 "<" stay one byte each. A
// re-encoding can still outgrow the body cap, because it spells out the
// fields a workload branch spec omits; one longer than maxRequestBody is
// refused, as every longer body is.
func FuzzRequestDecoders(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"fig8"}`,
		`{"experiment":"table1","benchmarks":["compress"],"insts":20000}`,
		`{"experiment":"table1","trace":true,"trace_limit":-1}`,
		`{"experimnt":"fig8"}`,
		`{"benchmarks":["compress"]}`,
		`{"configs":[{"name":"see","model":"see"}],"benchmarks":["go"],"insts":20000,"trace":true,"trace_limit":2000}`,
		`{"configs":[{"name":"x","model":"see"},{"name":"x","model":"monopath"}]}`,
		`{"configs":[{"name":"x","config":{"schema":"polypath/v1","mode":"see","fetch_width":0}}]}`,
		`{"configs":[{"name":"x","config":{"schema":"polypath/v9"}}]}`,
		`{"configs":[{"name":"x","model":"see"}],"parallelism":65}`,
		`{"configs":[{"name":"see","model":"see"}],"replicates":2,"parallelism":4}`,
		`{"configs":[{"name":"mono","model":"monopath"}],"title":"boom sweep (IPC)","benchmarks":["compress"],"insts":10000}`,
		`{"name":"tage","model":"tage"},{"name":"adaptive","model":"adaptive"}],"insts":1000,"replicates":6}`,
		`{"id":"w9","addr":"http://127.0.0.1:1"}`,
		fleetJobBody,
		longTitleBody,
	} {
		f.Add([]byte(body))
	}
	inline := traceWorkloadSpec()
	for _, v := range []any{
		JobRequest{
			Configs:    []ConfigEntry{{Name: "mono", Model: "monopath"}},
			Insts:      3000,
			Benchmarks: []string{"compress", "trace-0123456789ab"},
			Workloads:  []workload.Spec{traceWorkloadSpec()},
		},
		cellRequest(f, "see", CellRequest{Benchmark: "compress", Seed: 7, Insts: 2000, Audit: "cycle"}),
		cellRequest(f, "dualpath", CellRequest{Benchmark: "trace-0123456789ab", Insts: 3000, Spec: &inline}),
	} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	s := &Server{cfg: Config{Log: log.New(io.Discard, "", 0)}.withDefaults()}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkRoundTrip(t, body, func(r JobRequest) error {
			_, err := r.resolve(s.cfg.MaxInsts)
			return err
		})
		checkRoundTrip(t, body, func(r CellRequest) error {
			_, _, _, err := s.checkCell(r)
			return err
		})
	})
}

// checkRoundTrip decodes body into a T; when decodeBody and check accept
// it, the value must re-encode to a body that decodes to a value which
// passes check and encodes to the same bytes.
func checkRoundTrip[T any](t *testing.T, body []byte, check func(T) error) {
	var v T
	if !decodeForTest(body, &v) || check(v) != nil {
		return
	}
	enc, err := EncodeRequest(v)
	if err != nil {
		t.Fatalf("accepted %T does not encode: %v", v, err)
	}
	var again T
	if !decodeForTest(enc, &again) {
		if len(enc) > maxRequestBody {
			return
		}
		t.Fatalf("accepted %T re-encodes to a body decodeBody refuses:\n%s", v, enc)
	}
	if err := check(again); err != nil {
		t.Fatalf("accepted %T re-encodes to one its checks refuse: %v\n%s", v, err, enc)
	}
	if enc2, _ := EncodeRequest(again); !bytes.Equal(enc, enc2) {
		t.Fatalf("%T re-encoding is not a fixed point:\n%s\n%s", v, enc, enc2)
	}
}

func decodeForTest(body []byte, v any) bool {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	return decodeBody(httptest.NewRecorder(), r, v)
}
