package main

// The on-disk job specification: a JSON document describing the dataset,
// program template, cluster shape and data-management strategy of one run.
// frieda accepts it via -config, so a job is a reviewable artefact rather
// than a flag soup.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"frieda/internal/strategy"
)

// Job is one run specification.
type Job struct {
	// Name labels logs and history records.
	Name string `json:"name"`
	// Input is the dataset directory.
	Input string `json:"input"`
	// Template is the program execution syntax with $inpN placeholders.
	Template []string `json:"template"`
	// Workers is the worker count; CoresPerWorker the per-node cores.
	Workers        int `json:"workers"`
	CoresPerWorker int `json:"cores_per_worker"`
	// Strategy selects the data-management behaviour; its keys are
	// strategy.Config's JSON tags. A missing "mode" means real-time.
	Strategy strategy.Config `json:"strategy"`
	// WorkDir is the worker store root ("" = temp).
	WorkDir string `json:"work_dir,omitempty"`
	// ThrottleBytesPerSec emulates provisioned bandwidth in the in-process
	// transport (0 = unthrottled).
	ThrottleBytesPerSec float64 `json:"throttle_bytes_per_sec,omitempty"`
	// Recover enables lost-work requeue; MaxRetries bounds the retries of
	// one group (0 = sched.DefaultMaxRetries).
	Recover    bool `json:"recover,omitempty"`
	MaxRetries int  `json:"max_retries,omitempty"`
}

// Validate checks the job for completeness and fills its defaults, the
// strategy's included.
func (j *Job) Validate() error {
	if j.Input == "" {
		return fmt.Errorf("config: job %q has no input directory", j.Name)
	}
	if len(j.Template) == 0 {
		return fmt.Errorf("config: job %q has no template", j.Name)
	}
	if j.Workers < 1 {
		return fmt.Errorf("config: job %q has %d workers", j.Name, j.Workers)
	}
	if j.CoresPerWorker == 0 {
		j.CoresPerWorker = 4
	}
	if j.CoresPerWorker < 1 {
		return fmt.Errorf("config: job %q has %d cores per worker", j.Name, j.CoresPerWorker)
	}
	if j.ThrottleBytesPerSec < 0 {
		return fmt.Errorf("config: job %q has negative throttle", j.Name)
	}
	if j.MaxRetries < 0 {
		return fmt.Errorf("config: job %q has negative max_retries", j.Name)
	}
	return j.Strategy.Validate()
}

// Read parses and validates a job from JSON. Unknown fields are rejected:
// a typo in a job spec must not silently become a default. So is an unknown
// or empty strategy spelling; a strategy without "mode" is real-time.
func Read(r io.Reader) (*Job, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	j := Job{Strategy: strategy.Config{Kind: strategy.RealTime}}
	if err := dec.Decode(&j); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return &j, nil
}

// Load reads a job file.
func Load(path string) (*Job, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write renders the job as indented JSON.
func (j *Job) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(j)
}

// Example returns a documented template job, printed by `frieda -config-example`.
func Example() *Job {
	return &Job{
		Name:           "image-comparison",
		Input:          "/data/beamline/run42",
		Template:       []string{"compare", "-quiet", "$inp1", "$inp2"},
		Workers:        4,
		CoresPerWorker: 4,
		Strategy: strategy.Config{
			Kind:      strategy.RealTime,
			Grouping:  "pairwise-adjacent",
			Multicore: true,
		},
	}
}
