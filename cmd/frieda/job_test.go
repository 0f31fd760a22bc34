package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"frieda/internal/strategy"
)

const goodJob = `{
  "name": "als",
  "input": "/data/images",
  "template": ["compare", "$inp1", "$inp2"],
  "workers": 4,
  "cores_per_worker": 4,
  "strategy": {
    "mode": "real-time",
    "grouping": "pairwise-adjacent",
    "multicore": true
  }
}`

func TestReadGoodJob(t *testing.T) {
	j, err := Read(strings.NewReader(goodJob))
	if err != nil {
		t.Fatal(err)
	}
	if j.Name != "als" || j.Workers != 4 || len(j.Template) != 3 {
		t.Fatalf("job = %+v", j)
	}
	want := strategy.Config{Kind: strategy.RealTime, Grouping: "pairwise-adjacent", Assigner: "round-robin", Multicore: true}
	if !reflect.DeepEqual(j.Strategy, want) {
		t.Fatalf("strategy = %+v, want %+v", j.Strategy, want)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(goodJob, `"name"`, `"nmae"`, 1)
	if _, err := Read(strings.NewReader(bad)); err == nil {
		t.Fatal("typo field accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []func(*Job){
		func(j *Job) { j.Input = "" },
		func(j *Job) { j.Template = nil },
		func(j *Job) { j.Workers = 0 },
		func(j *Job) { j.CoresPerWorker = -1 },
		func(j *Job) { j.ThrottleBytesPerSec = -5 },
		func(j *Job) { j.MaxRetries = -1 },
		func(j *Job) { j.Strategy.Kind = 7 },
		func(j *Job) { j.Strategy.Grouping = "bogus" },
		func(j *Job) { j.Strategy.Assigner = "bogus" },
		func(j *Job) { j.Strategy.Locality = strategy.Local },
	}
	for i, mutate := range cases {
		j, err := Read(strings.NewReader(goodJob))
		if err != nil {
			t.Fatal(err)
		}
		mutate(j)
		if j.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// A strategy spelling the strategy package does not know, or an explicit
// empty one, is rejected while the file is read.
func TestReadRejectsBadSpellings(t *testing.T) {
	for _, r := range []*strings.Replacer{
		strings.NewReplacer(`"mode": "real-time"`, `"mode": "bogus"`),
		strings.NewReplacer(`"mode": "real-time"`, `"mode": ""`),
		strings.NewReplacer(`"mode": "real-time"`, `"mode": "real-time", "locality": "bogus"`),
		strings.NewReplacer(`"mode": "real-time"`, `"mode": "real-time", "locality": ""`),
		strings.NewReplacer(`"mode": "real-time"`, `"mode": "real-time", "placement": "bogus"`),
	} {
		if _, err := Read(strings.NewReader(r.Replace(goodJob))); err == nil {
			t.Errorf("accepted:\n%s", r.Replace(goodJob))
		}
	}
}

func TestValidateDefaultsCores(t *testing.T) {
	j, _ := Read(strings.NewReader(goodJob))
	j.CoresPerWorker = 0
	if err := j.Validate(); err != nil {
		t.Fatal(err)
	}
	if j.CoresPerWorker != 4 {
		t.Fatalf("cores default = %d", j.CoresPerWorker)
	}
}

func TestRoundTrip(t *testing.T) {
	orig := Example()
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, orig) {
		t.Fatalf("round trip: %+v, want %+v", back, orig)
	}
}

func TestExampleIsValid(t *testing.T) {
	if err := Example().Validate(); err != nil {
		t.Fatal(err)
	}
}

// A strategy without "mode", or no strategy at all, is real-time remote.
func TestReadDefaultsToRealTime(t *testing.T) {
	for _, doc := range []string{
		strings.Replace(goodJob, `"mode": "real-time",`, "", 1),
		goodJob[:strings.Index(goodJob, `,
  "strategy"`)] + "\n}",
	} {
		j, err := Read(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%v:\n%s", err, doc)
		}
		if j.Strategy.Kind != strategy.RealTime || j.Strategy.Locality != strategy.Remote {
			t.Fatalf("defaults = %+v", j.Strategy)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/job.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// FuzzJobRead reads any bytes as a job file: Read returns a job or an
// error, never both and never a panic, and a job it returns validates
// again unchanged.
func FuzzJobRead(f *testing.F) {
	f.Add([]byte(goodJob))
	f.Add([]byte(strings.Replace(goodJob, `"multicore": true`, `"multicore": true, "prefetch": 0`, 1)))
	f.Add([]byte(strings.Replace(goodJob, `"multicore": true`, `"prefetch": 2048`, 1)))
	f.Add([]byte(strings.Replace(goodJob, `"real-time"`, `"pre-partition", "assigner": "blocked"`, 1)))
	f.Add([]byte(`{"name":"x","input":"/d","template":["t"],"workers":1,"strategy":{"mode":7}}`))
	f.Add([]byte(`{"workers":-1}`))
	f.Add([]byte(`{} {}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		j, err := Read(bytes.NewReader(data))
		if (j == nil) == (err == nil) {
			t.Fatalf("Read = %+v, %v: want a job or an error", j, err)
		}
		if j == nil {
			return
		}
		again := *j
		again.Strategy = j.Strategy.Clone()
		if err := again.Validate(); err != nil || !reflect.DeepEqual(&again, j) {
			t.Fatalf("a job read back validates to %+v, %v; want %+v", again, err, j)
		}
	})
}
