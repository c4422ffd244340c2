package server

// The route table: every endpoint is declared once, with its method
// constraints, its canonical /api/v1 path and (for pre-v1 endpoints) its
// legacy /api alias. Dispatch is the server's one http.ServeMux: each row
// registers its v1 path and its alias as mux patterns ({id} path parameters
// included), beside ad hoc test routes, optional pprof and a "/" catch-all
// that writes the unified 404. The table is also where per-route
// observability lives: request counters by (route, method, code) and a
// latency histogram per route, recorded by the one wrapper every row's
// patterns share.
//
// Legacy aliases serve byte-identical bodies and statuses — same handler,
// same method rules — plus a "Deprecation: true" response header steering
// clients to the v1 path. A path with trailing garbage after a parameter
// matches no pattern and falls through to the unified 404; a non-canonical
// path ("//", "/./", "/../") gets the mux's 301 to its cleaned form.

import (
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// route is one row of the table.
type route struct {
	name   string
	v1     string
	legacy string
	// handlers maps method → handler. nil means any method is accepted and
	// any dispatches to anyMethod (index, healthz, readyz — probes send
	// HEADs and the pre-table handlers never method-checked these).
	handlers  map[string]http.HandlerFunc
	anyMethod http.HandlerFunc
	allow     string
	metrics   *routeMetrics
}

// addRoute registers one endpoint: its table row, and its v1 path and legacy
// alias as mux patterns. legacy may be "" for v1-only endpoints; handlers nil
// + any non-nil accepts every method. The index "/" registers as "/{$}" so it
// matches only itself, leaving "/" to the catch-all.
func (s *Server) addRoute(name, v1, legacy string, handlers map[string]http.HandlerFunc, any http.HandlerFunc) {
	rt := &route{
		name:      name,
		v1:        v1,
		legacy:    legacy,
		handlers:  handlers,
		anyMethod: any,
	}
	methods := make([]string, 0, len(handlers))
	for m := range handlers {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	rt.allow = strings.Join(methods, ", ")
	if any != nil {
		methods = []string{http.MethodGet}
	}
	rt.metrics = newRouteMetrics(s.met, name, methods)
	s.routes = append(s.routes, rt)
	pattern := v1
	if pattern == "/" {
		pattern = "/{$}"
	}
	s.mux.Handle(pattern, s.serveRoute(rt, false))
	if legacy != "" {
		s.mux.Handle(legacy, s.serveRoute(rt, true))
	}
}

// buildRoutes declares the API surface. Mutation endpoints are appended by
// NewMutableOpts before the server starts serving.
func (s *Server) buildRoutes() {
	get := func(h http.HandlerFunc) map[string]http.HandlerFunc {
		return map[string]http.HandlerFunc{http.MethodGet: h}
	}
	post := func(h http.HandlerFunc) map[string]http.HandlerFunc {
		return map[string]http.HandlerFunc{http.MethodPost: h}
	}
	s.addRoute("status", "/api/v1/status", "/api/status", get(s.handleStatus), nil)
	s.addRoute("groups", "/api/v1/groups", "/api/groups", get(s.handleGroups), nil)
	s.addRoute("configurations", "/api/v1/configurations", "/api/configurations", get(s.handleConfigurations), nil)
	s.addRoute("select", "/api/v1/select", "/api/select", post(s.handleSelect), nil)
	s.addRoute("rules", "/api/v1/rules", "", get(s.handleRules), nil)
	s.addRoute("query", "/api/v1/query", "/api/query", post(s.handleQuery), nil)
	s.addRoute("distribution", "/api/v1/distribution", "/api/distribution", get(s.handleDistribution), nil)
	s.addRoute("campaigns", "/api/v1/campaigns", "/api/campaigns", map[string]http.HandlerFunc{
		http.MethodGet:  s.handleCampaignsList,
		http.MethodPost: s.createCampaign,
	}, nil)
	s.addRoute("campaign", "/api/v1/campaigns/{id}", "/api/campaigns/{id}", get(s.handleCampaignGet), nil)
	s.addRoute("campaign-cancel", "/api/v1/campaigns/{id}/cancel", "/api/campaigns/{id}/cancel", post(s.handleCampaignCancel), nil)
	s.addRoute("metrics", "/api/v1/metrics", "", get(s.handleMetrics), nil)
	s.addRoute("healthz", "/healthz", "", nil, s.handleHealthz)
	s.addRoute("readyz", "/readyz", "", nil, s.handleReadyz)
	s.addRoute("index", "/", "", nil, s.handleIndex)
	// Unmatched paths are counted under one fixed label to keep the metric's
	// cardinality bounded no matter what clients probe for.
	s.unmatched = newRouteMetrics(s.met, "unmatched", nil)
	s.mux.HandleFunc("/", s.handleUnmatched)
}

// ServeHTTP implements http.Handler by dispatching through the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// handleUnmatched is the catch-all: the unified 404 for any path no route,
// test handler or pprof mount claims.
func (s *Server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	if s.obsEnabled() {
		s.unmatched.count(r.Method, http.StatusNotFound)
	}
	writeError(w, r, http.StatusNotFound, codeNotFound, "no such endpoint %s", r.URL.Path)
}

// serveRoute wraps one route for one of its patterns: the Deprecation header
// on the legacy alias, method dispatch (the unified 405 with Allow), and the
// per-route request counter and latency histogram.
func (s *Server) serveRoute(rt *route, deprecated bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if deprecated {
			w.Header().Set("Deprecation", "true")
		}
		h := rt.anyMethod
		if h == nil {
			h = rt.handlers[r.Method]
		}
		if h == nil {
			h = rt.writeMethodNotAllowed
		}
		if !s.obsEnabled() {
			h(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		defer func() {
			rt.metrics.latency.Observe(time.Since(start).Seconds())
			code := sw.status
			if e := recover(); e != nil {
				if code == 0 {
					// Panicked before writing; the hardening middleware will
					// turn this into a 500 (or abort the connection).
					code = http.StatusInternalServerError
				}
				rt.metrics.count(r.Method, code)
				panic(e)
			}
			if code == 0 {
				code = http.StatusOK
			}
			rt.metrics.count(r.Method, code)
		}()
		h(sw, r)
	}
}

func (rt *route) writeMethodNotAllowed(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", rt.allow)
	writeError(w, r, http.StatusMethodNotAllowed, codeMethodNotAllowed,
		"method %s not allowed on %s (allow: %s)", r.Method, rt.v1, rt.allow)
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// EnablePprof mounts net/http/pprof's handlers on the server's mux
// (behind podium-server's -pprof flag; off by default because the profile
// endpoints are unauthenticated and can stall a core).
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Routes returns (name, v1 path, legacy alias, allow) rows for every table
// entry — the golden route-table test and the index page render from this,
// so documentation cannot drift from dispatch.
func (s *Server) Routes() [][4]string {
	out := make([][4]string, 0, len(s.routes))
	for _, rt := range s.routes {
		allow := rt.allow
		if rt.anyMethod != nil {
			allow = "any"
		}
		out = append(out, [4]string{rt.name, rt.v1, rt.legacy, allow})
	}
	return out
}
