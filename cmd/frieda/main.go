// Command frieda is the all-in-one launcher: controller, master and N
// workers in a single process on the local machine — the quickest way to
// run a data-parallel program under a FRIEDA strategy.
//
//	frieda -input /data/images -workers 4 -cores 4 \
//	    -mode real-time -grouping pairwise-adjacent \
//	    -template 'compare "$inp1" "$inp2"'
//
// The optional -throttle flag rate-limits the in-process links through one
// shared token bucket, emulating the paper's 100 Mbps provisioned uplink at
// laptop scale (use -throttle 12500000 for 100 Mbps).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"frieda/internal/catalog"
	"frieda/internal/cli"
	"frieda/internal/core"
	"frieda/internal/history"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

func main() {
	fs := flag.NewFlagSet("frieda", flag.ExitOnError)
	input := fs.String("input", "", "input data directory (required unless -config)")
	template := fs.String("template", "", "program execution syntax, e.g. 'app arg1 $inp1' (required unless -config)")
	workers := fs.Int("workers", 2, "worker count")
	cores := fs.Int("cores", 4, "cores per worker")
	workdir := fs.String("workdir", "", "worker store root (default: temp dir)")
	throttle := fs.Float64("throttle", 0, "emulated link bandwidth in bytes/second (0 = unthrottled)")
	recover := fs.Bool("recover", false, "requeue work lost to failures")
	verbose := fs.Bool("v", false, "verbose master logging")
	configPath := fs.String("config", "", "JSON job specification (overrides the flags above)")
	configExample := fs.Bool("config-example", false, "print a template job specification and exit")
	historyPath := fs.String("history", "", "JSON execution-history file: runs are appended; -advise reads it")
	advise := fs.Bool("advise", false, "print the best recorded strategy for this input (needs -history) and exit")
	jobName := fs.String("name", "", "job name for history records (default: input directory base name)")
	strategyOf := cli.StrategyFlags(fs)
	fs.Parse(os.Args[1:])

	if *configExample {
		if err := Example().Write(os.Stdout); err != nil {
			log.Fatalf("frieda: %v", err)
		}
		return
	}

	var strat strategy.Config
	var argv []string
	var err error
	maxRetries := 0
	if *configPath != "" {
		job, err := Load(*configPath)
		if err != nil {
			log.Fatalf("frieda: %v", err)
		}
		strat = job.Strategy
		*input = job.Input
		argv = job.Template
		*workers = job.Workers
		*cores = job.CoresPerWorker
		*workdir = job.WorkDir
		*throttle = job.ThrottleBytesPerSec
		*recover = job.Recover
		maxRetries = job.MaxRetries
	} else {
		if *input == "" || *template == "" {
			fmt.Fprintln(os.Stderr, "frieda: -input and -template are required (or use -config)")
			fs.Usage()
			os.Exit(2)
		}
		strat, err = strategyOf()
		if err != nil {
			log.Fatalf("frieda: %v", err)
		}
		argv, err = cli.SplitTemplate(*template)
		if err != nil {
			log.Fatalf("frieda: %v", err)
		}
	}
	app := *jobName
	if app == "" {
		app = filepath.Base(*input)
	}
	if *advise {
		if *historyPath == "" {
			log.Fatal("frieda: -advise needs -history")
		}
		store, err := loadHistory(*historyPath)
		if err != nil {
			log.Fatalf("frieda: %v", err)
		}
		rec, err := store.Empirical(app, 1)
		if err != nil {
			log.Fatalf("frieda: %v", err)
		}
		fmt.Printf("best recorded strategy for %q: %s\n  %s (expected %.1fs)\n",
			app, rec.Strategy, rec.Reason, rec.ExpectedMakespanSec)
		return
	}
	root := *workdir
	if root == "" {
		tmp, err := os.MkdirTemp("", "frieda-")
		if err != nil {
			log.Fatalf("frieda: %v", err)
		}
		defer os.RemoveAll(tmp)
		root = tmp
	}

	var limiter *transport.Limiter
	if *throttle > 0 {
		limiter = transport.NewLimiter(*throttle, *throttle/4)
	}
	tr := transport.NewMem(limiter)

	masterCfg := core.MasterConfig{
		Source:     catalog.NewDirSource(*input),
		Recover:    *recover,
		MaxRetries: maxRetries,
	}
	if *verbose {
		masterCfg.Logf = log.Printf
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	ctl, err := core.NewController(core.ControllerConfig{
		Strategy:        strat,
		Template:        argv,
		Transport:       tr,
		MasterAddr:      "frieda-master",
		InProcessMaster: true,
		Master:          masterCfg,
		Workers:         *workers,
	})
	if err != nil {
		log.Fatalf("frieda: %v", err)
	}
	if err := ctl.Start(ctx); err != nil {
		log.Fatalf("frieda: %v", err)
	}
	for i := 0; i < *workers; i++ {
		name := fmt.Sprintf("w%d", i)
		store, err := core.NewDirStore(filepath.Join(root, name))
		if err != nil {
			log.Fatalf("frieda: %v", err)
		}
		if _, err := ctl.SpawnWorker(ctx, core.WorkerConfig{
			Name:  name,
			Cores: *cores,
			Store: store,
		}); err != nil {
			log.Fatalf("frieda: %v", err)
		}
	}
	report, err := ctl.Wait(ctx)
	if err != nil {
		log.Fatalf("frieda: %v", err)
	}
	cli.PrintReport(os.Stdout, report)
	if err := ctl.Shutdown(); err != nil {
		log.Printf("frieda: shutdown: %v", err)
	}
	if *historyPath != "" {
		if err := appendHistory(*historyPath, app, *workers, *cores, report); err != nil {
			log.Printf("frieda: recording history: %v", err)
		}
	}
	if report.Failed > 0 {
		os.Exit(1)
	}
}

// loadHistory reads the history file, tolerating a missing one.
func loadHistory(path string) (*history.Store, error) {
	store := history.NewStore()
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return store, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := store.Load(f); err != nil {
		return nil, err
	}
	return store, nil
}

// appendHistory records a completed run for future strategy advice.
func appendHistory(path, app string, workers, cores int, report core.Report) error {
	store, err := loadHistory(path)
	if err != nil {
		return err
	}
	if err := store.Add(history.Record{
		App:         app,
		Strategy:    report.Strategy,
		Workers:     workers,
		Slots:       workers * cores,
		MakespanSec: report.MakespanSec,
		BytesMoved:  float64(report.BytesMoved),
		Succeeded:   report.Succeeded,
		Failed:      report.Failed,
		When:        time.Now(),
	}); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := store.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
