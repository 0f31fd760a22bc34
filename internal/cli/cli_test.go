package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"frieda/internal/core"
	"frieda/internal/protocol"
	"frieda/internal/strategy"
)

func parseStrategy(t *testing.T, args ...string) (strategy.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	resolve := StrategyFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return resolve()
}

func TestStrategyFlagsDefaults(t *testing.T) {
	cfg, err := parseStrategy(t)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != strategy.RealTime || cfg.Locality != strategy.Remote || !cfg.Multicore {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Prefetch != 0 {
		t.Fatalf("prefetch = %d, want 0, the window left to the job", cfg.Prefetch)
	}
}

func TestStrategyFlagsFull(t *testing.T) {
	cfg, err := parseStrategy(t,
		"-mode", "pre-partition", "-locality", "local", "-placement", "compute-to-data",
		"-grouping", "pairwise-adjacent", "-assigner", "blocked",
		"-multicore=false", "-prefetch", "3", "-common", "db.bin, ref.idx")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != strategy.PrePartition || cfg.Locality != strategy.Local ||
		cfg.Placement != strategy.ComputeToData {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Grouping != "pairwise-adjacent" || cfg.Assigner != "blocked" || cfg.Multicore {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Prefetch != 3 {
		t.Fatalf("prefetch = %d", cfg.Prefetch)
	}
	if len(cfg.CommonFiles) != 2 || cfg.CommonFiles[1] != "ref.idx" {
		t.Fatalf("common = %v", cfg.CommonFiles)
	}
}

func TestStrategyFlagsRejections(t *testing.T) {
	// A spelling the strategy does not know fails at fs.Parse.
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-mode", ""},
		{"-locality", "bogus"},
		{"-placement", "bogus"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		StrategyFlags(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%v parsed", args)
		}
	}
	// The rest is strategy validation.
	for _, args := range [][]string{
		{"-grouping", "bogus"},
		{"-assigner", "bogus"},
		{"-mode", "real-time", "-locality", "local"},
	} {
		if _, err := parseStrategy(t, args...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestSplitTemplate(t *testing.T) {
	argv, err := SplitTemplate(`compare -v "$inp1 with space" $inp2`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"compare", "-v", "$inp1 with space", "$inp2"}
	if len(argv) != len(want) {
		t.Fatalf("argv = %v", argv)
	}
	for i := range want {
		if argv[i] != want[i] {
			t.Fatalf("argv[%d] = %q, want %q", i, argv[i], want[i])
		}
	}
}

func TestSplitTemplateErrors(t *testing.T) {
	if _, err := SplitTemplate(`app "unterminated`); err == nil {
		t.Fatal("unterminated quote accepted")
	}
	if _, err := SplitTemplate("   "); err == nil {
		t.Fatal("empty template accepted")
	}
}

func TestPrintReport(t *testing.T) {
	var b strings.Builder
	PrintReport(&b, core.Report{
		Strategy:         "real-time/remote",
		Groups:           3,
		Succeeded:        2,
		Failed:           1,
		MakespanSec:      1.5,
		TransferPhaseSec: 0.5,
		BytesMoved:       1024,
		Results: []protocol.TaskResult{
			{GroupIndex: 0, Worker: "w0", OK: true},
			{GroupIndex: 1, Worker: "w1", OK: true},
			{GroupIndex: 2, Worker: "w1", OK: false},
		},
		WorkerErrors: []string{"w2: crashed"},
	})
	out := b.String()
	for _, want := range []string{"real-time/remote", "3 (2 succeeded, 1 failed)", "1.500s", "staging", "1024 bytes", "w0", "w2: crashed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
