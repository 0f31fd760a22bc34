package strategy

import (
	"encoding"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"frieda/internal/catalog"
)

func TestValidateDefaults(t *testing.T) {
	c := Config{Kind: RealTime}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Grouping != "single" {
		t.Fatalf("grouping default = %q", c.Grouping)
	}
	if c.Assigner != "round-robin" {
		t.Fatalf("assigner default = %q", c.Assigner)
	}
	if c.Prefetch != 0 {
		t.Fatalf("prefetch = %d after Validate, want 0 left to the job", c.Prefetch)
	}
}

// A Prefetch of 0 may grow to PipelineBytes' worth of the mean group per
// slot and a JobShare'th of the groups (at least 4), at most
// MaxAutoPrefetch, and is pinned to one group per slot where that is one. A pinned Prefetch, and any kind but real-time, is left alone
// without sizing the job.
func TestForJob(t *testing.T) {
	bytes := func(n int64) func() int64 { return func() int64 { return n } }
	for _, tc := range []struct {
		n        int
		total    int64
		prefetch int
		ceiling  int
	}{
		{8192, 8192 << 10, 0, MaxAutoPrefetch},
		{4096, 4096 << 14, 0, MaxAutoPrefetch},
		{256, 256 << 18, 0, 4},
		{3, 1 << 20, 0, 2},
		{4, 4 * PipelineBytes / 2, 0, 2},
		{4, 4*PipelineBytes/2 + 1, 1, 1},
		{32, 32 << 23, 1, 1},
		{512, 512 << 10, 0, 8},
		{100, 100 << 10, 0, 4},
		{8, 0, 0, 4},
		{0, 0, 1, 1},
	} {
		got, ceiling := RealTimeRemote.ForJob(tc.n, bytes(tc.total))
		if got.Prefetch != tc.prefetch || ceiling != tc.ceiling || got.Adaptive() != (tc.prefetch == 0) {
			t.Errorf("%d groups of %d bytes: prefetch %d, ceiling %d; want %d, %d", tc.n, tc.total, got.Prefetch, ceiling, tc.prefetch, tc.ceiling)
		}
	}
	unsized := func() int64 { t.Fatal("sized a job it had nothing to resolve for"); return 0 }
	pinned := RealTimeRemote
	pinned.Prefetch = 2
	if got, ceiling := pinned.ForJob(8, unsized); got.Prefetch != 2 || ceiling != 2 {
		t.Errorf("a pinned prefetch of 2 became %d, ceiling %d", got.Prefetch, ceiling)
	}
	if got, ceiling := PrePartitionedRemote.ForJob(8, unsized); got.Prefetch != 0 || ceiling != 1 {
		t.Errorf("pre-partition's prefetch became %d, ceiling %d", got.Prefetch, ceiling)
	}
}

func TestValidateRejectsBadGrouping(t *testing.T) {
	c := Config{Grouping: "bogus"}
	if c.Validate() == nil {
		t.Fatal("bogus grouping accepted")
	}
}

func TestValidateRejectsBadAssigner(t *testing.T) {
	c := Config{Assigner: "bogus"}
	if c.Validate() == nil {
		t.Fatal("bogus assigner accepted")
	}
}

func TestValidateRejectsNegativePrefetch(t *testing.T) {
	c := Config{Prefetch: -1}
	if c.Validate() == nil {
		t.Fatal("negative prefetch accepted")
	}
}

// Prefetch is bounded above, so a window of slots × Prefetch never wraps.
func TestValidateBoundsPrefetch(t *testing.T) {
	for _, p := range []int{-1, MaxPrefetch + 1, 1 << 32, math.MaxInt} {
		c := Config{Kind: RealTime, Prefetch: p}
		if c.Validate() == nil {
			t.Errorf("prefetch %d accepted", p)
		}
	}
	c := Config{Kind: RealTime, Prefetch: MaxPrefetch}
	if err := c.Validate(); err != nil {
		t.Fatalf("prefetch %d: %v", MaxPrefetch, err)
	}
}

func TestValidateRejectsContradictions(t *testing.T) {
	c := Config{Kind: NoPartition, Placement: ComputeToData}
	if c.Validate() == nil {
		t.Fatal("no-partition + compute-to-data accepted")
	}
	c = Config{Kind: RealTime, Locality: Local}
	if c.Validate() == nil {
		t.Fatal("real-time + local accepted")
	}
}

func TestPresetsValid(t *testing.T) {
	for _, preset := range []Config{PrePartitionedLocal, PrePartitionedRemote, RealTimeRemote, CommonData} {
		p := preset
		if err := p.Validate(); err != nil {
			t.Fatalf("preset %s invalid: %v", preset, err)
		}
	}
}

func TestStrings(t *testing.T) {
	if NoPartition.String() != "no-partition" || PrePartition.String() != "pre-partition" || RealTime.String() != "real-time" {
		t.Fatal("Kind strings wrong")
	}
	if Remote.String() != "remote" || Local.String() != "local" {
		t.Fatal("Locality strings wrong")
	}
	if DataToCompute.String() != "data-to-compute" || ComputeToData.String() != "compute-to-data" {
		t.Fatal("Placement strings wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") || !strings.Contains(Locality(9).String(), "9") || !strings.Contains(Placement(9).String(), "9") {
		t.Fatal("unknown enum strings wrong")
	}
}

func TestConfigString(t *testing.T) {
	c := PrePartitionedRemote
	c.Grouping = "pairwise-adjacent"
	c.Assigner = "blocked"
	s := c.String()
	for _, want := range []string{"pre-partition", "remote", "pairwise-adjacent", "blocked", "multicore"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	r := RealTimeRemote
	r.Prefetch = 4
	if !strings.Contains(r.String(), "prefetch=4") {
		t.Fatalf("String() = %q missing prefetch", r.String())
	}
	// A Prefetch of 0 prints as left to the job, before Validate and after;
	// the paper's window of one prints nothing.
	r = RealTimeRemote
	validated := r
	if err := validated.Validate(); err != nil {
		t.Fatal(err)
	}
	want := "prefetch=auto"
	if r.String() != validated.String() || !strings.Contains(r.String(), want) {
		t.Fatalf("String() = %q before Validate, %q after; want both with %q", r.String(), validated.String(), want)
	}
	r.Prefetch = 1
	if strings.Contains(r.String(), "prefetch") {
		t.Fatalf("String() = %q names the paper's window", r.String())
	}
}

func TestGeneratorResolution(t *testing.T) {
	c := Config{Grouping: "all-to-all"}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := c.Generator()
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "all-to-all" {
		t.Fatalf("generator = %q", g.Name())
	}
}

// Groups runs the grouping over the catalogue less the common files, and
// a common file the catalogue lacks leaves it whole.
func TestGroupsLeaveOutCommonFiles(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"a", "b", "c", "db"} {
		cat.MustAdd(catalog.FileMeta{Name: name, Size: 1})
	}
	groups, err := Config{Grouping: "all-to-all", CommonFiles: []string{"db", "absent"}}.Groups(cat)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, g := range groups {
		got = append(got, fmt.Sprintf("%d %s %s", g.Index, g.Files[0].Name, g.Files[1].Name))
	}
	if want := []string{"0 a b", "1 a c", "2 b c"}; !slices.Equal(got, want) {
		t.Fatalf("groups %q, want %q", got, want)
	}
	if _, err := (Config{Grouping: "no-such-grouping"}).Groups(cat); err == nil {
		t.Fatal("an unknown grouping made groups")
	}
}

func TestAssignerByName(t *testing.T) {
	for _, name := range []string{"round-robin", "", "blocked", "size-balanced"} {
		if _, err := AssignerByName(name); err != nil {
			t.Fatalf("AssignerByName(%q): %v", name, err)
		}
	}
	if _, err := AssignerByName("nope"); err == nil {
		t.Fatal("bad assigner accepted")
	}
}

// Every spelling round-trips through MarshalText/UnmarshalText; unknown and
// empty spellings, and values outside the constants, are rejected.
func TestTextRoundTrip(t *testing.T) {
	type codec interface {
		MarshalText() ([]byte, error)
		UnmarshalText([]byte) error
	}
	cases := []struct {
		in   encoding.TextMarshaler
		out  codec
		text string
	}{
		{NoPartition, new(Kind), "no-partition"},
		{PrePartition, new(Kind), "pre-partition"},
		{RealTime, new(Kind), "real-time"},
		{Remote, new(Locality), "remote"},
		{Local, new(Locality), "local"},
		{DataToCompute, new(Placement), "data-to-compute"},
		{ComputeToData, new(Placement), "compute-to-data"},
	}
	for _, c := range cases {
		b, err := c.in.MarshalText()
		if err != nil || string(b) != c.text {
			t.Fatalf("%v.MarshalText() = %q, %v; want %q", c.in, b, err, c.text)
		}
		if err := c.out.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back, _ := c.out.MarshalText(); string(back) != c.text {
			t.Fatalf("%q came back as %q", c.text, back)
		}
		for _, bad := range []string{"", "bogus", strings.ToUpper(c.text), c.text + " "} {
			if err := c.out.UnmarshalText([]byte(bad)); err == nil {
				t.Errorf("%T accepted %q", c.out, bad)
			}
		}
	}
	for _, bad := range []encoding.TextMarshaler{Kind(3), Kind(-1), Locality(2), Placement(2)} {
		if _, err := bad.MarshalText(); err == nil {
			t.Errorf("%v marshalled", bad)
		}
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	for _, c := range []Config{{Kind: 7}, {Kind: -1}, {Locality: 2}, {Placement: 7}} {
		if c.Validate() == nil {
			t.Errorf("%s accepted", c)
		}
	}
}

// FuzzStrategyJSON decodes any bytes as a job file's strategy. What passes
// Validate spells itself back to the same strategy through json.Marshal,
// each enum through its MarshalText, and String never panics, on a
// refused strategy either.
func FuzzStrategyJSON(f *testing.F) {
	for _, seed := range []string{
		`{"mode":"real-time"}`,
		`{"mode":"real-time","prefetch":0}`,
		`{"mode":"real-time","prefetch":1024,"grouping":"pairwise-adjacent","multicore":true}`,
		`{"mode":"real-time","prefetch":1025}`,
		`{"mode":"pre-partition","locality":"local","placement":"compute-to-data","assigner":"size-balanced"}`,
		`{"mode":"no-partition","common":["db.fa","db.idx"]}`,
		`{"mode":"no-partition","placement":"compute-to-data"}`,
		`{"mode":"real-time","locality":"local"}`,
		`{"mode":3}`,
		`{"mode":"real-time","prefetch":-1,"common":[]}`,
		`{"grouping":"bogus"}`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil {
			return
		}
		_ = c.String()
		if c.Validate() != nil {
			_ = c.String()
			return
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%s validated and does not marshal: %v", c, err)
		}
		var back Config
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("%s marshals to %s, which does not decode: %v", c, out, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s marshals to %s, which does not validate: %v", c, out, err)
		}
		if len(c.CommonFiles) == 0 {
			c.CommonFiles = nil // an empty list is left out
		}
		if !reflect.DeepEqual(back, c) {
			t.Fatalf("%+v came back as %+v through %s", c, back, out)
		}
		for _, e := range []encoding.TextMarshaler{c.Kind, c.Locality, c.Placement} {
			if _, err := e.MarshalText(); err != nil {
				t.Fatalf("%s validated with an enum that does not spell: %v", c, err)
			}
		}
		_ = c.String()
	})
}
