// Package cli holds flag plumbing shared by the FRIEDA command-line tools:
// strategy flags, template parsing and report rendering.
package cli

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"

	"frieda/internal/core"
	"frieda/internal/strategy"
)

// StrategyFlags registers the strategy-selection flags on fs, bound straight
// into one strategy.Config: -mode, -locality and -placement parse with the
// strategy's own UnmarshalText, so a bad spelling fails fs.Parse. The
// returned function adds -common and validates the whole.
func StrategyFlags(fs *flag.FlagSet) func() (strategy.Config, error) {
	cfg := strategy.Config{Kind: strategy.RealTime, Grouping: "single", Assigner: "round-robin", Multicore: true}
	fs.TextVar(&cfg.Kind, "mode", cfg.Kind, "partitioning mode: no-partition | pre-partition | real-time")
	fs.TextVar(&cfg.Locality, "locality", cfg.Locality, "data locality at start: remote | local")
	fs.TextVar(&cfg.Placement, "placement", cfg.Placement, "movement direction: data-to-compute | compute-to-data")
	fs.StringVar(&cfg.Grouping, "grouping", cfg.Grouping, "input grouping: single | one-to-all | pairwise-adjacent | all-to-all | sliding-window")
	fs.StringVar(&cfg.Assigner, "assigner", cfg.Assigner, "pre-partition assignment: round-robin | blocked | size-balanced")
	fs.BoolVar(&cfg.Multicore, "multicore", cfg.Multicore, "clone the program once per worker core")
	fs.IntVar(&cfg.Prefetch, "prefetch", cfg.Prefetch,
		fmt.Sprintf("real-time groups in flight per slot: 1 is the paper's request-one-get-one, 0 grows the windows from 1 while the job's task rate rises, up to %d (fewer for short jobs and big groups), and keeps 1 for groups over %d KiB", strategy.MaxAutoPrefetch, strategy.PipelineBytes>>11))
	common := fs.String("common", "", "comma-separated files staged to every node (e.g. a database)")
	return func() (strategy.Config, error) {
		c := cfg
		for _, f := range strings.Split(*common, ",") {
			if f = strings.TrimSpace(f); f != "" {
				c.CommonFiles = append(c.CommonFiles, f)
			}
		}
		err := c.Validate()
		return c, err
	}
}

// SplitTemplate parses a shell-ish template string into argv, honouring
// simple double-quoted segments: `compare -v "$inp1" $inp2`.
func SplitTemplate(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '"':
			inQuote = !inQuote
		case r == ' ' && !inQuote:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("unterminated quote in template %q", s)
	}
	flush()
	if len(out) == 0 {
		return nil, fmt.Errorf("empty template")
	}
	return out, nil
}

// PrintReport renders a run report as text.
func PrintReport(w io.Writer, r core.Report) {
	fmt.Fprintf(w, "strategy:  %s\n", r.Strategy)
	fmt.Fprintf(w, "groups:    %d (%d succeeded, %d failed)\n", r.Groups, r.Succeeded, r.Failed)
	fmt.Fprintf(w, "makespan:  %.3fs\n", r.MakespanSec)
	if r.TransferPhaseSec > 0 {
		fmt.Fprintf(w, "staging:   %.3fs\n", r.TransferPhaseSec)
	}
	fmt.Fprintf(w, "moved:     %d bytes\n", r.BytesMoved)
	byWorker := map[string]int{}
	for _, res := range r.Results {
		if res.OK {
			byWorker[res.Worker]++
		}
	}
	workers := make([]string, 0, len(byWorker))
	for name := range byWorker {
		workers = append(workers, name)
	}
	sort.Strings(workers)
	for _, name := range workers {
		fmt.Fprintf(w, "  %-10s %d tasks\n", name, byWorker[name])
	}
	for _, e := range r.WorkerErrors {
		fmt.Fprintf(w, "worker error: %s\n", e)
	}
}
