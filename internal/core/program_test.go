package core

import (
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func memTask(t *testing.T, files map[string]string) Task {
	t.Helper()
	s := NewMemStore()
	var names []string
	for name, data := range files {
		if _, err := s.Put(name, strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return Task{GroupIndex: 0, Inputs: names, Store: s}
}

func dirTask(t *testing.T, files map[string]string) Task {
	t.Helper()
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, data := range files {
		if _, err := s.Put(name, strings.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	return Task{GroupIndex: 0, Inputs: names, Store: s}
}

func TestFuncProgram(t *testing.T) {
	p := FuncProgram(func(ctx context.Context, task Task) (string, error) {
		rc, err := task.Store.Open(task.Inputs[0])
		if err != nil {
			return "", err
		}
		defer rc.Close()
		data, _ := io.ReadAll(rc)
		return strings.ToUpper(string(data)), nil
	})
	out, err := p.Run(context.Background(), memTask(t, map[string]string{"in.txt": "hello"}))
	if err != nil {
		t.Fatal(err)
	}
	if out != "HELLO" {
		t.Fatalf("out = %q", out)
	}
}

func TestBindTemplate(t *testing.T) {
	task := dirTask(t, map[string]string{"a.img": "A", "b.img": "B"})
	// Deterministic order.
	task.Inputs = []string{"a.img", "b.img"}
	argv, err := BindTemplate([]string{"compare", "-x", "$inp1", "$inp2", "--out=$inp1.res"}, task)
	if err != nil {
		t.Fatal(err)
	}
	if argv[0] != "compare" || argv[1] != "-x" {
		t.Fatalf("argv = %v", argv)
	}
	if !strings.HasSuffix(argv[2], "a.img") || !strings.HasSuffix(argv[3], "b.img") {
		t.Fatalf("paths not bound: %v", argv)
	}
	if !strings.HasPrefix(argv[4], "--out=") || !strings.HasSuffix(argv[4], "a.img.res") {
		t.Fatalf("embedded placeholder not bound: %q", argv[4])
	}
}

func TestBindTemplateInputAlias(t *testing.T) {
	task := dirTask(t, map[string]string{"q.fa": "x"})
	task.Inputs = []string{"q.fa"}
	argv, err := BindTemplate([]string{"blastp", "-query", "$input"}, task)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(argv[2], "q.fa") {
		t.Fatalf("$input not bound: %v", argv)
	}
}

func TestBindTemplateErrors(t *testing.T) {
	task := dirTask(t, map[string]string{"a": "x"})
	task.Inputs = []string{"a"}
	cases := [][]string{
		{"app", "$inp2"},  // out of range
		{"app", "$inp0"},  // bad index
		{"app", "$inp"},   // no digits
		{"app", "$bogus"}, // unknown placeholder
	}
	for _, tmpl := range cases {
		if _, err := BindTemplate(tmpl, task); err == nil {
			t.Errorf("template %v accepted", tmpl)
		}
	}
	// Memory stores cannot bind paths.
	mem := memTask(t, map[string]string{"a": "x"})
	if _, err := BindTemplate([]string{"app", "$inp1"}, mem); err == nil {
		t.Error("mem-store path binding accepted")
	}
}

func TestExecProgram(t *testing.T) {
	task := dirTask(t, map[string]string{"greeting.txt": "hi there"})
	task.Inputs = []string{"greeting.txt"}
	p := ExecProgram{Template: []string{"cat", "$inp1"}}
	out, err := p.Run(context.Background(), task)
	if err != nil {
		t.Fatal(err)
	}
	if out != "hi there" {
		t.Fatalf("out = %q", out)
	}
}

func TestExecProgramFailure(t *testing.T) {
	task := dirTask(t, map[string]string{"x": ""})
	task.Inputs = []string{"x"}
	p := ExecProgram{Template: []string{"false"}}
	if _, err := p.Run(context.Background(), task); err == nil {
		t.Fatal("false(1) succeeded")
	}
	empty := ExecProgram{}
	if _, err := empty.Run(context.Background(), task); err == nil {
		t.Fatal("empty template accepted")
	}
}

// A failed run's summary is bounded like a successful one's: it rides the
// run's MASTER_DONE.
func TestExecProgramFailureOutputBounded(t *testing.T) {
	task := dirTask(t, map[string]string{"big.txt": strings.Repeat("x", 10000)})
	task.Inputs = []string{"big.txt"}
	p := ExecProgram{Template: []string{"cat", "$inp1", filepath.Join(t.TempDir(), "missing")}}
	out, err := p.Run(context.Background(), task)
	if err == nil {
		t.Fatal("cat of a missing file succeeded")
	}
	if len(out) != 4096 || strings.Trim(out, "x") != "" {
		t.Fatalf("failed run's summary is %d bytes, want the first 4096", len(out))
	}
}

func TestMemStoreAppendOrder(t *testing.T) {
	s := NewMemStore()
	if err := s.Append("f", 0, []byte("ab")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("f", 2, []byte("cd")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("f", 99, []byte("xx")); err == nil {
		t.Fatal("gap accepted")
	}
	data, _ := s.Bytes("f")
	if string(data) != "abcd" {
		t.Fatalf("data = %q", data)
	}
	// Offset 0 restarts the file.
	if err := s.Append("f", 0, []byte("Z")); err != nil {
		t.Fatal(err)
	}
	data, _ = s.Bytes("f")
	if string(data) != "Z" {
		t.Fatalf("restart data = %q", data)
	}
	if s.Size("f") != 1 || s.Size("nope") != -1 {
		t.Fatal("Size wrong")
	}
}

func TestDirStoreAppendAndPath(t *testing.T) {
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("sub/f.bin", 0, []byte("12")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("sub/f.bin", 2, []byte("34")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("sub/f.bin", 9, []byte("xx")); err == nil {
		t.Fatal("gap accepted")
	}
	rc, err := s.Open("sub/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "1234" {
		t.Fatalf("data = %q", data)
	}
	if !s.Has("sub/f.bin") || s.Has("nope") {
		t.Fatal("Has wrong")
	}
	if s.Size("sub/f.bin") != 4 {
		t.Fatalf("Size = %d", s.Size("sub/f.bin"))
	}
	if _, ok := s.Path("sub/f.bin"); !ok {
		t.Fatal("Path missing")
	}
}

func TestDirStoreRejectsEscapes(t *testing.T) {
	s, _ := NewDirStore(t.TempDir())
	for _, bad := range []string{"../x", "/etc/passwd", "a/../../b", ""} {
		if _, err := s.Put(bad, strings.NewReader("x")); err == nil {
			t.Errorf("Put(%q) accepted", bad)
		}
		if err := s.Append(bad, 0, []byte("x")); err == nil {
			t.Errorf("Append(%q) accepted", bad)
		}
	}
}

// A name that starts with two dots but stays inside the root is stored.
func TestDirStoreDotDotName(t *testing.T) {
	s, _ := NewDirStore(t.TempDir())
	if _, err := s.Put("..notes.txt", strings.NewReader("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("...", 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
}

// Property: for both stores, Put then Open round-trips arbitrary content,
// and chunked Append equals one-shot Put.
func TestStoreRoundTripProperty(t *testing.T) {
	prop := func(data []byte, chunkRaw uint8) bool {
		chunk := int(chunkRaw%63) + 1
		for _, s := range []Store{NewMemStore(), mustDirStore(t)} {
			if _, err := s.Put("whole", strings.NewReader(string(data))); err != nil {
				return false
			}
			for off := 0; off == 0 || off < len(data); off += chunk {
				end := off + chunk
				if end > len(data) {
					end = len(data)
				}
				if err := s.Append("chunked", int64(off), data[off:end]); err != nil {
					return false
				}
				if end == len(data) {
					break
				}
			}
			a := readAll(s, "whole")
			b := readAll(s, "chunked")
			if a != string(data) || b != string(data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func mustDirStore(t *testing.T) *DirStore {
	t.Helper()
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func readAll(s Store, name string) string {
	rc, err := s.Open(name)
	if err != nil {
		return "<err>"
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return "<err>"
	}
	return string(data)
}

func TestBindTemplateNamedPlaceholder(t *testing.T) {
	task := dirTask(t, map[string]string{"q.fa": "MKV", "nr.fasta": "db-contents"})
	task.Inputs = []string{"q.fa"}
	argv, err := BindTemplate([]string{"minblast", "-db", "${nr.fasta}", "-query", "$inp1"}, task)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(argv[2], "nr.fasta") {
		t.Fatalf("${nr.fasta} not bound: %v", argv)
	}
	if !strings.HasSuffix(argv[4], "q.fa") {
		t.Fatalf("$inp1 not bound: %v", argv)
	}
	// Missing named file is an error pointing at common-file staging.
	if _, err := BindTemplate([]string{"x", "${missing.db}"}, task); err == nil {
		t.Fatal("missing named file accepted")
	}
	// Unterminated and empty placeholders are errors.
	if _, err := BindTemplate([]string{"x", "${oops"}, task); err == nil {
		t.Fatal("unterminated ${ accepted")
	}
	if _, err := BindTemplate([]string{"x", "${}"}, task); err == nil {
		t.Fatal("empty ${} accepted")
	}
}
