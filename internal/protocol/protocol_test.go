package protocol

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"frieda/internal/strategy"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	in := &Message{
		Type:     TFileData,
		Worker:   "w3",
		FileName: "img-0042.pgm",
		Offset:   65536,
		Data:     []byte("payload-bytes"),
		Last:     true,
		Seq:      7,
	}
	if err := c.Send(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if out.Type != TFileData || out.Worker != "w3" || out.FileName != in.FileName ||
		out.Offset != in.Offset || string(out.Data) != string(in.Data) || !out.Last || out.Seq != 7 {
		t.Fatalf("round trip mangled message: %+v", out)
	}
}

func TestRoundTripComplexFields(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	in := &Message{
		Type: TStartMaster,
		Strategy: strategy.Config{
			Kind: strategy.RealTime, Locality: strategy.Remote, Placement: strategy.DataToCompute,
			Grouping: "pairwise-adjacent", Multicore: true, Prefetch: 2,
			CommonFiles: []string{"nr.db"},
		},
		Template: []string{"blastp", "-db", "nr.db", "-query", "$inp1"},
		Files:    []FileInfo{{Name: "a", Size: 1}, {Name: "b", Size: 2}},
		Groups:   []int{0, 4, 8},
		Result:   TaskResult{GroupIndex: 3, Worker: "w0", OK: true, DurationSec: 1.5, Output: "ok"},
	}
	if err := c.Send(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy.Grouping != "pairwise-adjacent" || len(out.Strategy.CommonFiles) != 1 {
		t.Fatalf("strategy mangled: %+v", out.Strategy)
	}
	if len(out.Template) != 5 || out.Template[4] != "$inp1" {
		t.Fatalf("template mangled: %v", out.Template)
	}
	if len(out.Files) != 2 || out.Files[1].Size != 2 {
		t.Fatalf("files mangled: %v", out.Files)
	}
	if len(out.Groups) != 3 || out.Groups[2] != 8 {
		t.Fatalf("groups mangled: %v", out.Groups)
	}
	if !out.Result.OK || out.Result.DurationSec != 1.5 {
		t.Fatalf("result mangled: %+v", out.Result)
	}
}

// TestStrategyRoundTripGrid sweeps Kind × Locality × Placement × Multicore ×
// Prefetch through the codec: every configuration arrives unchanged, and
// Validate rejects exactly those it rejected before sending (e.g.
// no-partition + compute-to-data), so the wire smuggles nothing through.
func TestStrategyRoundTripGrid(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	valid, invalid := 0, 0
	for _, k := range []strategy.Kind{strategy.NoPartition, strategy.PrePartition, strategy.RealTime} {
		for _, l := range []strategy.Locality{strategy.Remote, strategy.Local} {
			for _, p := range []strategy.Placement{strategy.DataToCompute, strategy.ComputeToData} {
				for _, mc := range []bool{false, true} {
					for _, pf := range []int{0, 1, 8} {
						in := strategy.Config{Kind: k, Locality: l, Placement: p, Multicore: mc, Prefetch: pf,
							Grouping: "all-to-all", Assigner: "blocked", CommonFiles: []string{"db"}}
						if err := c.Send(&Message{Type: TPartitionType, Strategy: in}); err != nil {
							t.Fatalf("%s: %v", in, err)
						}
						m, err := c.Recv()
						if err != nil {
							t.Fatalf("%s: %v", in, err)
						}
						if !reflect.DeepEqual(m.Strategy, in) {
							t.Fatalf("round trip mangled %+v -> %+v", in, m.Strategy)
						}
						sent, got := in, m.Strategy
						wantErr, gotErr := sent.Validate(), got.Validate()
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: Validate before sending = %v, after = %v", in, wantErr, gotErr)
						}
						if gotErr != nil {
							invalid++
						} else if valid++; !reflect.DeepEqual(got, sent) {
							t.Fatalf("validated %+v, want %+v", got, sent)
						}
					}
				}
			}
		}
	}
	if valid == 0 || invalid == 0 {
		t.Fatalf("grid degenerate: %d valid, %d invalid", valid, invalid)
	}
	// The wire carries the enums as integers, so a value outside the
	// constants arrives as it left; Validate is what refuses it.
	if err := c.Send(&Message{Type: TStartMaster, Strategy: strategy.Config{Kind: 7}}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Strategy.Kind != 7 || m.Strategy.Validate() == nil {
		t.Fatalf("out-of-range kind arrived as %s and validated", m.Strategy.Kind)
	}
}

func TestMultipleMessagesInOrder(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	for i := 0; i < 10; i++ {
		if err := c.Send(&Message{Type: TRequestData, GroupIndex: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.GroupIndex != i {
			t.Fatalf("message %d arrived with index %d", i, m.GroupIndex)
		}
	}
}

func TestRejectInvalidType(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if err := c.Send(&Message{}); err == nil {
		t.Fatal("TInvalid send accepted")
	}
}

func TestRecvOnEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv on empty stream succeeded")
	}
}

func TestConcurrentSendSafe(t *testing.T) {
	// A locked pipe: Codec.Send must serialise concurrent encoders.
	var mu sync.Mutex
	var buf bytes.Buffer
	type lockedBuf struct {
		*bytes.Buffer
	}
	_ = lockedBuf{}
	// bytes.Buffer is not concurrency-safe, so use a wrapper.
	w := &syncRW{buf: &buf, mu: &mu}
	c := NewCodec(w)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := c.Send(&Message{Type: TRequestData, GroupIndex: i*100 + j}); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	seen := 0
	for {
		if _, err := c.Recv(); err != nil {
			break
		}
		seen++
	}
	if seen != 400 {
		t.Fatalf("decoded %d messages, want 400", seen)
	}
}

type syncRW struct {
	buf *bytes.Buffer
	mu  *sync.Mutex
}

func (s *syncRW) Read(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Read(p)
}

func (s *syncRW) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func TestTypeStrings(t *testing.T) {
	if TStartMaster.String() != "START_MASTER" {
		t.Fatalf("TStartMaster = %q", TStartMaster.String())
	}
	if TDistribute.String() != "DISTRIBUTE_FILES" {
		t.Fatalf("TDistribute = %q", TDistribute.String())
	}
	if !strings.Contains(Type(999).String(), "999") {
		t.Fatalf("unknown type = %q", Type(999).String())
	}
}

func TestWireSize(t *testing.T) {
	m := &Message{Type: TFileData, Data: make([]byte, 1000)}
	if m.WireSize() < 1000 {
		t.Fatalf("WireSize = %d < payload", m.WireSize())
	}
	small := &Message{Type: TAck}
	if small.WireSize() <= 0 || small.WireSize() > 1024 {
		t.Fatalf("control WireSize = %d", small.WireSize())
	}
}

// Property: any message of any valid type, with any of its fields set,
// survives encode/decode unchanged, field for field.
func TestRoundTripProperty(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	prop := func(seed int64, typ uint8) bool {
		in := sample(Type(1+int(typ)%int(TExecuteBatch)), rand.New(rand.NewSource(seed)))
		if err := c.Send(in); err != nil {
			t.Logf("send %s: %v", in.Type, err)
			return false
		}
		out, err := c.Recv()
		if err != nil {
			t.Logf("recv %s: %v", in.Type, err)
			return false
		}
		if !reflect.DeepEqual(out, in) {
			t.Logf("mangled:\n got %+v\nwant %+v", out, in)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
