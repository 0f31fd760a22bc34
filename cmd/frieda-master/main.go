// Command frieda-master runs FRIEDA's execution-plane master as a daemon:
// it serves the input directory over TCP, waits for a controller
// (frieda-controller) to install a strategy and for workers
// (frieda-worker) to register, then coordinates data movement and task
// farming to completion.
//
// The master must run close to the input data (paper, Section II-B): point
// -input at the dataset directory on the data host.
//
//	frieda-master -addr :7001 -input /data/images
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"frieda/internal/catalog"
	"frieda/internal/core"
	"frieda/internal/sched"
	"frieda/internal/transport"
)

func main() {
	fs := flag.NewFlagSet("frieda-master", flag.ExitOnError)
	addr := fs.String("addr", ":7001", "listen address")
	input := fs.String("input", "", "input data directory (required)")
	chunk := fs.Int("chunk", core.DefaultChunkSize, "file transfer chunk size in bytes")
	recover := fs.Bool("recover", false, "requeue work lost to failures (future-work extension)")
	retries := fs.Int("retries", sched.DefaultMaxRetries, "max retries per group under -recover (attempts ≤ retries+1)")
	verbose := fs.Bool("v", false, "verbose logging")
	fs.Parse(os.Args[1:])

	if *input == "" {
		fmt.Fprintln(os.Stderr, "frieda-master: -input is required")
		fs.Usage()
		os.Exit(2)
	}
	if _, err := os.Stat(*input); err != nil {
		log.Fatalf("frieda-master: input directory: %v", err)
	}

	cfg := core.MasterConfig{
		Source:     catalog.NewDirSource(*input),
		Transport:  transport.NewTCP(),
		Addr:       *addr,
		ChunkSize:  *chunk,
		Recover:    *recover,
		MaxRetries: *retries,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	m, err := core.NewMaster(cfg)
	if err != nil {
		log.Fatalf("frieda-master: %v", err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	log.Printf("frieda-master: serving %s on %s", *input, *addr)
	if err := m.Serve(ctx); err != nil {
		log.Fatalf("frieda-master: %v", err)
	}
	report := m.Report()
	log.Printf("frieda-master: done — %d/%d groups succeeded, %.3fs makespan",
		report.Succeeded, report.Groups, report.MakespanSec)
}
