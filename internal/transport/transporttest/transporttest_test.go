package transporttest

import (
	"testing"

	"frieda/internal/protocol"
	"frieda/internal/strategy"
	"frieda/internal/transport"
)

// A receiver that keeps a control message, or a slice of it, past the next
// Recv finds it poisoned — on the transport that hands out the sender's
// message and on the one that decodes into its codec's — while what it copied
// at the Recv is intact and the sender's message is untouched.
func TestOwnershipCatchesAKeptMessage(t *testing.T) {
	for name, tc := range map[string]struct {
		tr   transport.Transport
		addr string
	}{
		"mem": {transport.NewMem(nil), "x"},
		"tcp": {transport.NewTCP(), "127.0.0.1:0"},
	} {
		t.Run(name, func(t *testing.T) {
			tr := NewOwnership(tc.tr)
			l, err := tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.Conn, 1)
			go func() {
				c, _ := l.Accept()
				accepted <- c
			}()
			client, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			server := <-accepted
			defer server.Close()

			sent := &protocol.Message{
				Type: protocol.TStartMaster, Template: []string{"app", "$inp1"},
				Strategy: strategy.Config{Kind: strategy.RealTime, CommonFiles: []string{"db"}},
				Files:    []protocol.FileInfo{{Name: "a", Size: 1}},
				Results:  []protocol.TaskResult{{GroupIndex: 3, Worker: "w0", OK: true}},
				Executes: []protocol.ExecuteSpec{{GroupIndex: 4, Files: []protocol.FileInfo{{Name: "b", Size: 2}}}},
			}
			for _, m := range []*protocol.Message{sent, {Type: protocol.TShutdown}} {
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
			if sent.Template[0] != "app" || sent.Files[0].Name != "a" || sent.Strategy.CommonFiles[0] != "db" {
				t.Errorf("the sender's message was poisoned: %+v", sent)
			}
		})
	}
}

// On a transport that hands the sender's message to the receiver, a sender
// that refills its message, or one of its slices or payloads, before the
// receiver has it is reported — while one that reuses its message through
// transport.SendReused, or over a transport that copies, is not.
func TestOwnershipCatchesAReusedSend(t *testing.T) {
	for name, tc := range map[string]struct {
		tr     transport.Transport
		addr   string
		reused bool // SendReused instead of Send
		want   int  // violations
	}{
		"mem/send":        {transport.NewMem(nil), "x", false, 4},
		"mem/send-reused": {transport.NewMem(nil), "x", true, 0},
		"tcp/send":        {transport.NewTCP(), "127.0.0.1:0", false, 0},
	} {
		t.Run(name, func(t *testing.T) {
			tr := NewOwnership(tc.tr)
			l, err := tr.Listen(tc.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.Conn, 1)
			go func() {
				c, _ := l.Accept()
				accepted <- c
			}()
			client, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			server := <-accepted
			defer server.Close()

			send := client.Send
			if tc.reused {
				send = func(m *protocol.Message) error { return transport.SendReused(client, m) }
			}
			// Each message is refilled after its Send, before the receiver
			// reads it: a slice element, a scalar and a payload byte. The
			// payload is left alone where the sender only may reuse the
			// message, not its Data: SendReused over the in-memory transport.
			exec := &protocol.Message{Type: protocol.TExecute, GroupIndex: 1, Files: []protocol.FileInfo{{Name: "a", Size: 1}}}
			status := &protocol.Message{Type: protocol.TTaskStatus, Results: []protocol.TaskResult{{GroupIndex: 1, OK: true}}}
			payload := []byte("payload")
			data := &protocol.Message{Type: protocol.TFileData, FileName: "a", FileSize: 7, Data: payload, Last: true}
			for _, m := range []*protocol.Message{exec, status, data} {
				if err := send(m); err != nil {
					t.Fatal(err)
				}
			}
			exec.Files[0].Name = "b"
			status.Results[0].GroupIndex = 2
			if !tc.reused {
				data.Offset = 3 // the struct is the scratch; its payload is not
			}
			if client.SendCopies() || !tc.reused {
				payload[0] = 'P'
			}
			for range 3 {
				if _, err := server.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			if v := tr.Violations(); len(v) != tc.want {
				t.Errorf("%d violations, want %d: %q", len(v), tc.want, v)
			}
			if tr.Checked() != 1 {
				t.Errorf("%d data messages checked, want 1", tr.Checked())
			}
		})
	}
}
