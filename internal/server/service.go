// The service layer between the HTTP handlers and the library: request
// semantics (replay vs explicit query format, matching-side overrides,
// per-request deadlines) live here, handlers.go only translates HTTP. Every
// method works on a pair the handler has acquired from the registry —
// nothing in this file builds pair-level state.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"minoaner/internal/core"
	"minoaner/internal/graph"
	"minoaner/internal/kb"
)

// apiError is an error with a wire mapping: an HTTP status plus a stable
// envelope code.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errPairNotFound(id string) *apiError {
	return &apiError{status: http.StatusNotFound, code: CodePairNotFound,
		msg: fmt.Sprintf("no pair %q is loaded; POST /v1/pairs to load one", id)}
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeInvalidRequest, msg: fmt.Sprintf(format, args...)}
}

// ctxError maps a context abort onto the wire: 504 for an expired deadline,
// 499-style 503 for a client cancellation.
func ctxError(err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded,
			msg: "request deadline expired before the resolution finished"}
	case errors.Is(err, context.Canceled):
		return &apiError{status: http.StatusServiceUnavailable, code: CodeCanceled,
			msg: "request canceled before the resolution finished"}
	}
	return &apiError{status: http.StatusInternalServerError, code: CodeInternal, msg: err.Error()}
}

// kernelError maps a failed resolution onto the wire: the context abort
// when there was one, a 500 for a pair whose snapshot failed a check on this
// read — a deferred check (kb.ErrCorrupt) or a graph row a kernel touched
// (graph.ErrOutOfRange, graph.ErrBadWeight); the pair is damaged, not the
// request — and a 400 otherwise.
func kernelError(ctx context.Context, err error) *apiError {
	switch {
	case ctx.Err() != nil:
		return ctxError(ctx.Err())
	case errors.Is(err, kb.ErrCorrupt), errors.Is(err, graph.ErrOutOfRange), errors.Is(err, graph.ErrBadWeight):
		return &apiError{status: http.StatusInternalServerError, code: CodeInternal, msg: err.Error()}
	}
	return badRequest("%v", err)
}

// requestCtx derives the per-request deadline: the client's timeout_ms when
// given (capped at MaxTimeout), the server default otherwise. The returned
// context is what the resolution kernels observe between parallel chunks —
// an expired deadline aborts the work, not just the response write.
func (s *Server) requestCtx(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	d := s.opts.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.opts.MaxTimeout {
			d = s.opts.MaxTimeout
		}
	}
	return context.WithTimeout(parent, d)
}

// entityQuery lowers a wire QueryRequest onto the query it asks. The replay
// format (a bare E1 URI) resolves to that entity, which the caller answers
// from its stored rows (core.ReplayEntity); it is kb.NoEntity for the
// explicit format, whose description is returned as a core.EntityQuery.
func entityQuery(sub *core.Substrate, req *QueryRequest) (kb.EntityID, core.EntityQuery, *apiError) {
	if len(req.Attrs) == 0 && len(req.Objects) == 0 && req.SelfURI == "" {
		if req.URI == "" {
			return kb.NoEntity, core.EntityQuery{}, badRequest("query needs a uri to replay or attrs/objects to describe a new entity")
		}
		e := sub.K1().Lookup(req.URI)
		if err := sub.K1().Err(); err != nil {
			return kb.NoEntity, core.EntityQuery{}, kernelError(context.Background(), err)
		}
		if e == kb.NoEntity {
			return kb.NoEntity, core.EntityQuery{}, badRequest("uri %q is not an E1 entity and the query carries no statements", req.URI)
		}
		return e, core.EntityQuery{}, nil
	}
	if req.SelfURI != "" {
		e := sub.K1().Lookup(req.SelfURI)
		if err := sub.K1().Err(); err != nil {
			return kb.NoEntity, core.EntityQuery{}, kernelError(context.Background(), err)
		}
		if e == kb.NoEntity {
			return kb.NoEntity, core.EntityQuery{}, badRequest("self_uri %q is not an E1 entity", req.SelfURI)
		}
	}
	q := core.EntityQuery{URI: req.URI, SelfURI: req.SelfURI}
	for _, a := range req.Attrs {
		q.Attrs = append(q.Attrs, kb.AttributeValue{Attribute: a.Attribute, Value: a.Value})
	}
	for _, o := range req.Objects {
		q.Objects = append(q.Objects, core.QueryObject{Predicate: o.Predicate, Object: o.Object})
	}
	return kb.NoEntity, q, nil
}

// query resolves one entity description against a loaded pair's shared
// substrate under the request deadline.
func (s *Server) query(ctx context.Context, p *Pair, req *QueryRequest) (*QueryResponse, *apiError) {
	sub := p.sub
	e, q, aerr := entityQuery(sub, req)
	if aerr != nil {
		return nil, aerr
	}
	qctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	if s.beforeQuery != nil {
		s.beforeQuery()
	}
	t0 := time.Now()
	var ms []core.QueryMatch
	var err error
	if e != kb.NoEntity {
		ms, err = core.ReplayEntity(qctx, sub, e, p.cfg)
	} else {
		ms, err = core.QueryEntity(qctx, sub, q, p.cfg)
	}
	if err != nil {
		return nil, kernelError(qctx, err)
	}
	p.queries.Add(1)
	return &QueryResponse{
		Pair:       p.id,
		URI:        req.URI,
		Candidates: Candidates(ms),
		ElapsedUS:  float64(time.Since(t0).Microseconds()),
	}, nil
}

// resolve runs a batch resolution over the pair's shared substrate, applying
// only the matching-side overrides of the request.
func (s *Server) resolve(ctx context.Context, p *Pair, req *ResolveRequest) (*ResolveResponse, *apiError) {
	sub := p.sub
	cfg := p.cfg
	if req.Theta != 0 {
		cfg.Theta = req.Theta
	}
	if req.TopK != 0 {
		cfg.TopK = req.TopK
	}
	rctx, cancel := s.requestCtx(ctx, req.TimeoutMS)
	defer cancel()
	t0 := time.Now()
	out, err := core.ResolveWith(rctx, sub, cfg)
	if err != nil {
		return nil, kernelError(rctx, err)
	}
	resp := &ResolveResponse{
		Pair:        p.id,
		Matches:     make([]ResolveMatch, 0, len(out.Matches)),
		MatchCount:  len(out.Matches),
		GraphEdges:  out.GraphEdges,
		RemovedByR4: out.RemovedByR4,
		ElapsedMS:   float64(time.Since(t0).Microseconds()) / 1000,
	}
	k1, k2 := sub.K1(), sub.K2()
	for _, m := range out.Matches {
		resp.Matches = append(resp.Matches, ResolveMatch{
			URI1: k1.URI(m.Pair.E1),
			URI2: k2.URI(m.Pair.E2),
			Rule: m.Rule.String(),
		})
	}
	return resp, nil
}

// entities returns a prefix of the pair's E1 URIs — the replay corpus for
// load tests and smoke checks. A snapshot-loaded pair checks the URIs it
// reads; damage among them is a 500, like a kernel's kb.ErrCorrupt.
func (s *Server) entities(p *Pair, limit int) (*EntitiesResponse, *apiError) {
	k1 := p.sub.K1()
	n := k1.Len()
	if limit <= 0 || limit > n {
		limit = n
	}
	uris := make([]string, limit)
	for i := range uris {
		uris[i] = k1.URI(kb.EntityID(i))
	}
	if err := k1.Err(); err != nil {
		return nil, kernelError(context.Background(), err)
	}
	return &EntitiesResponse{Pair: p.id, Count: n, URIs: uris}, nil
}
