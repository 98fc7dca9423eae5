// Command bruckd serves collective jobs from a pool of resident bruckv
// worlds over HTTP: a long-lived, multi-tenant collective service.
// Tenants submit JobRequests to POST /v1/jobs and are batched onto
// disjoint sub-communicators of shared worlds, so jobs from different
// tenants execute concurrently inside one simulated machine. GET
// /metrics exposes Prometheus counters; SIGTERM (or SIGINT) drains:
// admission stops, in-flight jobs finish, every session parks, and the
// process exits 0.
//
// Usage:
//
//	bruckd [-addr :8461] [-config service.json]
//
// The config file is a service.Config: a map of world profiles (each a
// bruckv.WorldConfig — per-tenant tuning tables and fault plans live
// here) and a tenant directory with quotas. Without -config a built-in
// demo config serves tenants "tc", "kcfa", "uniform", and "phantom".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bruckv"
	"bruckv/internal/service"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so slow or idle connections cannot hold the server.
const readHeaderTimeout = 10 * time.Second

// defaultConfig is the demo pool bruckd serves without -config,
// matched by bruckload's built-in workload mix: a shared raw world for
// the skewed and uniform tenants, and a phantom world wide enough for
// size-only load.
func defaultConfig() service.Config {
	return service.Config{
		Worlds: map[string]bruckv.WorldConfig{
			"default": {Size: 32, Preset: "theta"},
			"phantom": {Size: 64, Preset: "theta", Phantom: true},
		},
		Tenants: map[string]service.TenantConfig{
			"tc":      {Quota: service.Quota{MaxRanks: 16}},
			"kcfa":    {Quota: service.Quota{MaxRanks: 16}},
			"uniform": {Quota: service.Quota{MaxInFlight: 16}},
			"phantom": {World: "phantom"},
		},
	}
}

func run() error {
	addr := flag.String("addr", ":8461", "listen address")
	configPath := flag.String("config", "", "service config JSON (default: built-in demo pool)")
	flag.Parse()

	cfg := defaultConfig()
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		if cfg, err = service.ParseConfig(data); err != nil {
			return err
		}
	}
	s, err := service.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Printf("bruckd: serving %d world(s), %d tenant(s) on %s\n",
		len(cfg.Worlds), len(cfg.Tenants), ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-httpDone:
		s.Close()
		return err
	}

	fmt.Println("bruckd: draining (admission closed, finishing in-flight jobs)")
	s.Drain()
	if err := hs.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("bruckd: drained; final counters:")
	if err := s.WriteMetrics(os.Stdout); err != nil {
		return err
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bruckd:", err)
		os.Exit(1)
	}
}
