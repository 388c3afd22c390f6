package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns an http.Handler exposing the registry:
//
//	/metrics       Prometheus text exposition of a live Snapshot
//	/debug/vars    standard expvar JSON (process-wide)
//	/debug/pprof/  the full net/http/pprof suite, so the yarrp6-shard /
//	               yarrp6-batch pprof labels are one command away:
//	               go tool pprof http://addr/debug/pprof/profile
//
// The handler uses its own mux, so mounting it never touches
// http.DefaultServeMux.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Snapshot().WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so idle half-open connections cannot pile up.
const readHeaderTimeout = 10 * time.Second

// Serve listens on addr and serves Handler(r) until the process exits or
// the listener fails. It returns the bound listener address (useful with
// ":0") or an error if the listen fails; serving happens on a background
// goroutine and serve-side errors are dropped, matching the endpoint's
// best-effort, opt-in role.
func Serve(addr string, r *Registry) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(r), ReadHeaderTimeout: readHeaderTimeout}
	go srv.Serve(ln)
	return ln.Addr(), nil
}
