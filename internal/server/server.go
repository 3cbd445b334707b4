// Package server is the resolution-as-a-service layer over the minoaner
// library: a long-running HTTP/JSON server holding a registry of loaded KB
// pairs whose substrates are built once and shared across all requests. The
// versioned /v1 API loads pairs asynchronously, answers per-entity queries
// and batch resolutions under per-request deadlines, and shuts down
// gracefully — draining in-flight queries while aborting in-flight builds.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Options configures a Server; the zero value serves on a random localhost
// port with production defaults.
type Options struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Logger receives access and lifecycle logs (default slog.Default()).
	Logger *slog.Logger
	// MaxBodyBytes bounds every request body (default 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request deadline when the request carries no
	// timeout_ms (default 30s); MaxTimeout caps client-requested deadlines
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// BuildCommand, when set, is the argv of a process that runs BuildChild:
	// every pair loaded from KB files is then built by one such child and
	// mapped from the snapshot it writes, so a build shares neither
	// processors nor heap with the queries. cmd/minoanerd sets it to its own
	// executable plus BuildChildArg. Empty, the same build runs on a
	// goroutine of this process — the choice for a program that embeds the
	// server, whose binary cannot be started again with a surprise argument.
	BuildCommand []string
}

func (o Options) withDefaults() Options {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	return o
}

// Server is the HTTP resolution service: a registry of shared substrates
// behind the /v1 API.
type Server struct {
	opts Options
	reg  *Registry
	http *http.Server
	ln   net.Listener

	// ready flips false once shutdown starts, failing /readyz first so load
	// balancers stop routing before the listener closes.
	ready atomic.Bool

	// beforeQuery, when non-nil, runs inside every query once its pair is
	// acquired and its deadline is ticking — a test hook to park or fail a
	// request in flight. Never set in production, and only set before Start
	// so the handlers race-free read it.
	beforeQuery func()
}

// New builds a Server with an empty registry.
func New(opts Options) *Server {
	s := &Server{opts: opts.withDefaults(), reg: NewRegistry()}
	s.reg.buildCommand, s.reg.log = s.opts.BuildCommand, s.opts.Logger
	s.http = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Registry exposes the server's pair registry (the bench harness preloads
// substrates through it).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the fully routed /v1 handler with access logging — usable
// directly under httptest for in-process tests and benchmarks.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/pairs", s.handleLoadPair)
	mux.HandleFunc("GET /v1/pairs", s.handleListPairs)
	mux.HandleFunc("GET /v1/pairs/{id}", s.handleGetPair)
	mux.HandleFunc("DELETE /v1/pairs/{id}", s.handleDeletePair)
	mux.HandleFunc("POST /v1/pairs/{id}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/pairs/{id}/resolve", s.handleResolve)
	mux.HandleFunc("GET /v1/pairs/{id}/entities", s.handleEntities)
	return s.accessLog(mux)
}

// Start binds the listener and serves in the background, returning the
// resolved address (the ":0" form binds an ephemeral port).
func (s *Server) Start() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.ready.Store(true)
	go func() {
		if err := s.http.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.opts.Logger.Error("serve failed", "err", err)
		}
	}()
	return ln.Addr(), nil
}

// Shutdown drains the server: readiness flips immediately, in-flight
// requests (queries included) run to completion until ctx expires, and
// in-flight substrate builds are aborted — a half-built substrate is useless
// after exit, so builds get cancellation rather than drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	// Abort builds first so a long build cannot outlive the drain window.
	s.reg.Close()
	return s.http.Shutdown(ctx)
}

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// accessLog wraps the router with structured per-request logging. Below
// Info (minoanerd -quiet) the line is not built at all.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		s.contain(next, sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		if !s.opts.Logger.Enabled(r.Context(), slog.LevelInfo) {
			return
		}
		s.opts.Logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur", time.Since(t0).Round(time.Microsecond).String(),
		)
	})
}

// contain serves one request and keeps a panic in its handler from taking
// the process down: the stack is logged and the request answered 500 with the
// internal envelope — or, when a response was already under way, cut off, so
// the client sees a broken connection rather than half a body. The pair goes
// on serving: the handler's deferred Release has run by the time the panic
// arrives here.
func (s *Server) contain(next http.Handler, sw *statusWriter, r *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		s.opts.Logger.Error("handler panicked", "method", r.Method, "path", r.URL.Path,
			"panic", v, "stack", string(debug.Stack()))
		if sw.status != 0 {
			panic(http.ErrAbortHandler)
		}
		s.writeError(sw, &apiError{status: http.StatusInternalServerError, code: CodeInternal,
			msg: "the server failed on this request; the pair keeps serving"})
	}()
	next.ServeHTTP(sw, r)
}

// Addr returns the bound listen address after Start.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// String identifies the server in logs.
func (s *Server) String() string {
	if s.ln != nil {
		return fmt.Sprintf("minoanerd(%s)", s.ln.Addr())
	}
	return "minoanerd(unstarted)"
}
