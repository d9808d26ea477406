package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/server"
)

// worker.go is the client half of the fleet protocol: the coordinator's
// transport to worker nodes (DialWorker, a server.WorkerCaller over
// HTTP) and the worker's attachment loop to its coordinator
// (register + heartbeat with automatic re-registration).

// workerCaller issues single-shot POST /v1/cells calls to one worker.
// Deliberately no inner retries: the coordinator's dispatcher owns the
// retry/hedge/redispatch policy and needs to see every individual
// failure to drive it. The per-attempt deadline is the caller's ctx
// (dispatch wraps each cell in Config.CellTimeout).
type workerCaller struct {
	base string
	http *http.Client
}

// DialWorker returns a server.WorkerCaller speaking the /v1/cells
// protocol to the worker at addr. It matches the signature of
// server.Config.DialWorker, so wiring the coordinator is one line:
//
//	cfg.DialWorker = client.DialWorker
func DialWorker(addr string) server.WorkerCaller {
	return &workerCaller{base: strings.TrimRight(addr, "/"), http: http.DefaultClient}
}

// RunCell executes one cell on the worker. Failures are returned as
// *server.CellCallError carrying the worker's self-reported node ID and
// crash attribution from the fleet protocol headers.
func (w *workerCaller) RunCell(ctx context.Context, req server.CellRequest) (server.CellResponse, error) {
	var out server.CellResponse
	body, err := server.EncodeRequest(req)
	if err != nil {
		return out, &server.CellCallError{Err: err}
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return out, &server.CellCallError{Err: err}
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := w.http.Do(hreq)
	if err != nil {
		// Transport failure: the worker never identified itself.
		return out, &server.CellCallError{Err: err}
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	resp.Body.Close()
	node := resp.Header.Get(server.HeaderNode)
	if err != nil {
		return out, &server.CellCallError{Node: node, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return out, &server.CellCallError{
			Node:   node,
			Crash:  resp.Header.Get(server.HeaderCrash) != "",
			Status: resp.StatusCode,
			Msg:    errText(data, resp.Status),
		}
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, &server.CellCallError{Node: node, Err: fmt.Errorf("malformed cell response: %w", err)}
	}
	return out, nil
}

// RegisterWorker announces a worker to the coordinator and returns the
// granted lease.
func (c *Client) RegisterWorker(ctx context.Context, reg server.WorkerRegistration) (server.WorkerLease, error) {
	var lease server.WorkerLease
	body, err := server.EncodeRequest(reg)
	if err != nil {
		return lease, err
	}
	err = c.do(ctx, http.MethodPost, "/v1/workers", body, http.StatusOK, &lease)
	return lease, err
}

// HeartbeatWorker renews a worker's lease. A 404 *APIError means the
// coordinator no longer knows the worker (it restarted, or the lease
// expired long ago) and the worker must re-register.
func (c *Client) HeartbeatWorker(ctx context.Context, id string) (server.WorkerLease, error) {
	var lease server.WorkerLease
	err := c.do(ctx, http.MethodPost, "/v1/workers/"+id+"/heartbeat", []byte("{}"), http.StatusOK, &lease)
	return lease, err
}

// Attachment keeps one worker registered with its coordinator: register,
// then heartbeat at a third of the granted lease, re-registering
// whenever the coordinator forgets us (its restart) or becomes
// unreachable (a partition). Run blocks until ctx is cancelled; the
// worker keeps serving /v1/cells throughout — attachment state only
// governs whether new work is routed here.
type Attachment struct {
	// Coordinator is the client for the coordinator's /v1 API.
	Coordinator *Client
	// ID and Addr are this worker's stable identity and reachable base URL.
	ID   string
	Addr string
	// OnState receives "attached"/"detached" transitions (may be nil).
	OnState func(state string)
	// Logf receives attachment lifecycle lines (may be nil).
	Logf func(format string, args ...any)
}

func (a *Attachment) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *Attachment) setState(attached *bool, now bool) {
	if *attached == now {
		return
	}
	*attached = now
	state := "detached"
	if now {
		state = "attached"
	}
	a.logf("polyserve worker %s: %s (coordinator %s)", a.ID, state, a.Coordinator.BaseURL)
	if a.OnState != nil {
		a.OnState(state)
	}
}

// Run drives the attachment loop until ctx ends.
func (a *Attachment) Run(ctx context.Context) {
	attached := false
	for ctx.Err() == nil {
		lease, err := a.Coordinator.RegisterWorker(ctx, server.WorkerRegistration{ID: a.ID, Addr: a.Addr})
		if err != nil {
			a.setState(&attached, false)
			a.logf("polyserve worker %s: registration failed: %v", a.ID, err)
			if sleepErr := a.Coordinator.sleep(ctx, time.Second); sleepErr != nil {
				return
			}
			continue
		}
		a.setState(&attached, true)
		interval := time.Duration(lease.LeaseMS) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		// Heartbeat until the coordinator stops answering or forgets us.
		for ctx.Err() == nil {
			if err := a.Coordinator.sleep(ctx, interval); err != nil {
				return
			}
			if _, err := a.Coordinator.HeartbeatWorker(ctx, a.ID); err != nil {
				a.setState(&attached, false)
				a.logf("polyserve worker %s: heartbeat failed: %v; re-registering", a.ID, err)
				break // fall back to registration
			}
			a.setState(&attached, true)
		}
	}
}
