package main

// Client/server plumbing shared by the workloads that go over HTTP: the
// server configuration, the traced runs' timing middleware and counting
// round tripper, and readers for the server's own counters.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"xkprop/internal/budget"
	"xkprop/internal/client"
	"xkprop/internal/server"
)

// serverConfig is the xkserve configuration every workload runs against:
// one executing slot per CPU behind a bounded admission queue, and a
// registry LRU far smaller than design-cold's stream of new schemas.
func serverConfig() server.Config {
	return server.Config{
		RequestTimeout: time.Minute,
		MaxInFlight:    runtime.NumCPU(),
		Budget:         budget.Budget{MaxRegistryEntries: 64, MaxQueueDepth: 64},
	}
}

// newClient builds the retrying client over a transport holding at most
// nproc connections, wrapped by the counting round tripper in traced runs.
func newClient(base string, seed int64, rt http.RoundTripper) *client.Client {
	return client.New(client.Config{
		Base:           base,
		HTTP:           &http.Client{Transport: rt},
		AttemptTimeout: time.Minute,
		Seed:           seed,
	})
}

type opKey struct{}

// opTag names the operation a request belongs to and the client span it
// is sent under.
type opTag struct{ op, span int64 }

// withOp tags a traced run's request context with its operation and
// client span, which the counting round tripper forwards to the server in
// opHeader. Untraced runs send the request unchanged.
func (e *env) withOp(ctx context.Context, op, span int64) context.Context {
	if e.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, opKey{}, opTag{op, span})
}

const opHeader = "X-Bench-Op" // "<op>/<client span>"

// countingTransport counts HTTP attempts (retries included) and forwards
// the operation tag so server-side spans join the client's.
type countingTransport struct {
	inner    http.RoundTripper
	attempts atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.attempts.Add(1)
	if tag, ok := r.Context().Value(opKey{}).(opTag); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, fmt.Sprintf("%d/%d", tag.op, tag.span))
	}
	return t.inner.RoundTrip(r)
}

// timeHandler records a server.handler span around every request.
func timeHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			h.ServeHTTP(w, r)
			op, parent := int64(-1), int64(0)
			if _, err := fmt.Sscanf(r.Header.Get(opHeader), "%d/%d", &op, &parent); err != nil {
				op, parent = -1, 0 // the benchmark's own set-up and verification requests
			}
			tr.record("server.handler", parent, op, t0, time.Now())
		})
	}
}

// serverCounters snapshots the server-side counters a traced run reports.
type serverCounters struct {
	hits, misses, evictions int64
	busy                    int64
	waitCount               int64
	waitMs                  float64
}

func readCounters(l *live) serverCounters {
	reg := l.srv.Registry()
	set := l.srv.Metrics()
	var h struct {
		Count int64   `json:"count"`
		SumMs float64 `json:"sum_ms"`
	}
	_ = json.Unmarshal([]byte(set.Histogram("queue.wait").String()), &h) // rendered by the metrics package; a parse failure reads as zero waits
	return serverCounters{
		hits: reg.Hits(), misses: reg.Misses(), evictions: reg.Evictions(),
		busy:      set.Counter("aborts.busy").Value(),
		waitCount: h.Count, waitMs: h.SumMs,
	}
}

// serverLayers fills the per-layer metrics measured at the client/server
// boundary over a timed phase: before/after counter snapshots, the op and
// handler spans, and the counting transport. verify counts the benchmark's
// own verification requests, each one registry hit and one attempt, which
// are not operations.
func serverLayers(out map[string]metric, tr *tracer, before, after serverCounters, ct *countingTransport, ops int64, verify int64) {
	hits := float64(after.hits - before.hits - verify)
	misses := float64(after.misses - before.misses)
	out["registry.hits"] = metric{hits, "count"}
	out["registry.misses"] = metric{misses, "count"}
	out["registry.evictions"] = metric{float64(after.evictions - before.evictions), "count"}
	if hits+misses > 0 {
		out["registry.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	}
	if ops > 0 {
		out["client.attempts_per_op"] = metric{float64(ct.attempts.Load()-verify) / float64(ops), "attempts/op"}
	}
	handler := map[int64]time.Duration{}
	for _, s := range tr.byName("server.handler") {
		handler[s.Op] += s.dur()
	}
	var client, matched time.Duration
	var n int
	for _, s := range tr.byName("client.op") {
		if h, ok := handler[s.Op]; ok {
			client += s.dur()
			matched += h
			n++
		}
	}
	if n > 0 {
		out["server.handler_ms"] = metric{ms(matched) / float64(n), "ms"}
		out["client.transport_ms"] = metric{ms(client-matched) / float64(n), "ms"}
	}
}
