package transporttest

import (
	"reflect"
	"strings"
	"testing"

	"frieda/internal/protocol"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// connPair wraps tr in the ownership checker and returns it with a connected
// pair of its connections.
func connPair(t *testing.T, tr transport.Transport, addr string) (o *Ownership, client, server transport.Conn) {
	t.Helper()
	o = NewOwnership(tr)
	l, err := o.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err = o.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return o, client, server
}

var transports = map[string]struct {
	tr   func() transport.Transport
	addr string
}{
	"mem": {func() transport.Transport { return transport.NewMem(nil) }, "x"},
	"tcp": {func() transport.Transport { return transport.NewTCP() }, "127.0.0.1:0"},
}

// A receiver that keeps a control message, or a slice of it, past the next
// Recv finds it poisoned — on the transport that copies envelopes into slots
// of its own and on the one that decodes into its codec's — while what it
// copied at the Recv is intact and the sender's message is untouched. A
// payload kept past the next Recv is poisoned where the transport copies it,
// and intact where it was handed over.
func TestOwnershipCatchesAKeptMessage(t *testing.T) {
	for name, tc := range transports {
		t.Run(name, func(t *testing.T) {
			_, client, server := connPair(t, tc.tr(), tc.addr)
			sent := &protocol.Message{
				Type: protocol.TStartMaster, Template: []string{"app", "$inp1"},
				Strategy: strategy.Config{Kind: strategy.RealTime, CommonFiles: []string{"db"}},
				Files:    []protocol.FileInfo{{Name: "a", Size: 1}},
				Results:  []protocol.TaskResult{{GroupIndex: 3, Worker: "w0", OK: true}},
				Executes: []protocol.ExecuteSpec{{GroupIndex: 4, Files: []protocol.FileInfo{{Name: "b", Size: 2}}}},
			}
			payload := []byte("payload")
			data := &protocol.Message{Type: protocol.TFileData, FileName: "a", FileSize: 7, Data: payload, Last: true}
			for _, m := range []*protocol.Message{sent, data, {Type: protocol.TShutdown}} {
				if err := client.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			kept, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			template, files, results, spec := kept.Template, kept.Files, kept.Results, kept.Executes[0]
			copied := kept.Files[0].Name // a string outlives the message
			keptData, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			chunk := keptData.Data
			if _, err := server.Recv(); err != nil {
				t.Fatal(err)
			}
			if kept.Type != protocol.TInvalid || kept.Strategy.Kind != 0 || len(kept.Files) != 0 {
				t.Errorf("kept message still reads %s, %s, %v", kept.Type, kept.Strategy.Kind, kept.Files)
			}
			if template[0] == "app" || files[0].Name == "a" || results[0].GroupIndex == 3 || spec.Files[0].Name == "b" {
				t.Errorf("kept slices not poisoned: %v %v %v %v", template, files, results, spec.Files)
			}
			if copied != "a" {
				t.Errorf("a string copied at the Recv reads %q", copied)
			}
			if keptData.Type != protocol.TInvalid || keptData.FileName != "" {
				t.Errorf("kept data message still reads %s of %q", keptData.Type, keptData.FileName)
			}
			if poisoned := string(chunk) != "payload"; poisoned != client.SendCopies() {
				t.Errorf("kept payload reads %q where the transport copies is %v", chunk, client.SendCopies())
			}
			if sent.Template[0] != "app" || sent.Files[0].Name != "a" || sent.Strategy.CommonFiles[0] != "db" || string(payload) != "payload" {
				t.Errorf("the sender's message was poisoned: %+v, %q", sent, payload)
			}
		})
	}
}

// On a transport that hands payloads over, a sender that modifies a payload
// it has sent is reported: before the receiver has it, by the CRC check at
// delivery, even if it puts the byte back later; after, by the check made
// when the violations are read. Over a transport that copies the same sender
// is within its rights.
func TestOwnershipCatchesAReusedSend(t *testing.T) {
	for name, tc := range map[string]struct {
		tr   transport.Transport
		addr string
		want []string // violations, by the check that reports them
	}{
		"mem/send": {transport.NewMem(nil), "x", []string{"at delivery", "after delivery"}},
		"tcp/send": {transport.NewTCP(), "127.0.0.1:0", nil},
	} {
		t.Run(name, func(t *testing.T) {
			tr, client, server := connPair(t, tc.tr, tc.addr)
			early, late := []byte("early"), []byte("late")
			for _, m := range []*protocol.Message{
				{Type: protocol.TFileData, FileName: "a", FileSize: 5, Data: early, Last: true},
				{Type: protocol.TFileData, FileName: "b", FileSize: 4, Data: late, Last: true},
			} {
				if err := client.Send(m); err != nil {
					t.Fatal(err)
				}
			}
			early[0] = 'E' // before delivery, put back after it
			for range 2 {
				if _, err := server.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			early[0] = 'e'
			late[0] = 'L' // after delivery
			v := tr.Violations()
			if len(v) != len(tc.want) {
				t.Fatalf("%d violations, want %d: %q", len(v), len(tc.want), v)
			}
			for i, want := range tc.want {
				if !strings.Contains(v[i], want) {
					t.Errorf("violation %d = %q, want one %s", i, v[i], want)
				}
			}
			if tr.Checked() != 2 {
				t.Errorf("%d data messages checked, want 2", tr.Checked())
			}
		})
	}
}

// A sender may overwrite its envelope — scalars, strings and every slice —
// as soon as Send returns, on either transport: the receiver gets what was
// sent, and the checker reports nothing.
func TestOwnershipAllowsAReusedEnvelope(t *testing.T) {
	for name, tc := range transports {
		t.Run(name, func(t *testing.T) {
			tr, client, server := connPair(t, tc.tr(), tc.addr)
			msgs := []*protocol.Message{
				{Type: protocol.TExecute, GroupIndex: 1, Files: []protocol.FileInfo{{Name: "a", Size: 1}}},
				{Type: protocol.TTaskStatus, Results: []protocol.TaskResult{{GroupIndex: 1, OK: true, Worker: "w0"}}},
				{Type: protocol.TExecuteBatch, Executes: []protocol.ExecuteSpec{
					{GroupIndex: 2, Files: []protocol.FileInfo{{Name: "b", Size: 2}}},
					{GroupIndex: 3, Files: []protocol.FileInfo{{Name: "c", Size: 3}, {Name: "d", Size: 4}}},
				}},
				{Type: protocol.TStartMaster, Template: []string{"app", "$inp1"}, Groups: []int{5, 6},
					Strategy: strategy.Config{Kind: strategy.RealTime, CommonFiles: []string{"db"}}},
				{Type: protocol.TFileData, FileName: "a", FileSize: 7, Data: []byte("payload"), Last: true},
			}
			var want []*protocol.Message
			for _, m := range msgs {
				want = append(want, Snapshot(m))
				if err := client.Send(m); err != nil {
					t.Fatal(err)
				}
				// Overwrite everything but the payload's bytes.
				for i := range m.Files {
					m.Files[i] = protocol.FileInfo{Name: "X", Size: -1}
				}
				for i := range m.Results {
					m.Results[i] = protocol.TaskResult{GroupIndex: -1}
				}
				for i := range m.Executes {
					m.Executes[i].Files[0].Name = "X"
					m.Executes[i].GroupIndex = -1
				}
				for i := range m.Template {
					m.Template[i] = "X"
				}
				for i := range m.Groups {
					m.Groups[i] = -1
				}
				for i := range m.Strategy.CommonFiles {
					m.Strategy.CommonFiles[i] = "X"
				}
				m.GroupIndex, m.FileName, m.Offset, m.Last = -1, "X", 99, false
			}
			for i := range msgs {
				got, err := server.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if string(got.Data) != string(msgs[i].Data) {
					t.Errorf("message %d: payload %q, want %q", i, got.Data, msgs[i].Data)
				}
				if g := Snapshot(got); !reflect.DeepEqual(g, want[i]) {
					t.Errorf("message %d arrived as %+v, sent %+v", i, *g, *want[i])
				}
			}
			if v := tr.Violations(); len(v) > 0 {
				t.Errorf("violations: %q", v)
			}
			if tr.Checked() != 1 {
				t.Errorf("%d data messages checked, want 1", tr.Checked())
			}
		})
	}
}
