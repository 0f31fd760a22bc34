package frieda

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// callerExempt names the exported functions and methods under internal/
// that may have no caller in the module's or bench/'s non-test code, each
// with the reason it stays. Keys are as uncalledExports reports them.
var callerExempt = map[string]string{
	"internal/catalog.Error.Unwrap":    "errors.Is and errors.As call it",
	"internal/exprun.CellError.Unwrap": "errors.Is and errors.As call it",

	"internal/netsim.linkHeap.Less": "heap.Interface: container/heap calls it",
	"internal/netsim.linkHeap.Swap": "heap.Interface: container/heap calls it",
	"internal/netsim.linkHeap.Push": "heap.Interface: container/heap calls it",
	"internal/netsim.linkHeap.Pop":  "heap.Interface: container/heap calls it",

	"internal/cloud.Default4VMCluster": "the paper's 4-VM testbed, the fixture of the simulator packages' tests",
	"internal/cloud.Cluster.FailDisk":  "the scripted disk death that durability tests in other packages inject",

	// The runtime and the workloads are outside the simulator's sweep of
	// uncalled API; ROADMAP item 15 keeps their review open.
	"internal/core.Controller.UpdateStrategy":    "the paper's run-time reconfiguration channel (Section II-D), which no command drives yet",
	"internal/core.Controller.Errors":            "the controller's record of worker failures, which no command prints yet",
	"internal/workload/blast.DB.NumSequences":    "the database's record count, beside Residues",
	"internal/workload/imagecmp.SimilarWindowed": "the windowed-SSIM form of the pipeline's decision rule, beside Similar",
}

// callerExemptMethods are method names the standard library calls through
// fmt and encoding: a type declares them to be printed or parsed.
var callerExemptMethods = []string{"String", "Error", "MarshalText", "UnmarshalText"}

// Every exported function and method declared in a non-test file under
// internal/ is called from somewhere: its name appears in a non-test file of
// the module or of bench/ outside its own declaration. transporttest is a
// test helper package and is not checked; what else stays without a caller
// is listed, with its reason, in callerExempt.
func TestEveryInternalExportHasACaller(t *testing.T) {
	uncalled, err := uncalledExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := callerExempt[name]; !ok {
			t.Errorf("%s is exported but nothing outside tests calls it: delete it, or list it in callerExempt with the reason it stays", name)
		}
	}
	for name := range callerExempt {
		if !slices.Contains(uncalled, name) {
			t.Errorf("callerExempt lists %s, which is gone or has a caller now: drop it from the list", name)
		}
	}
}

// The checker reports an export nothing calls: the fixture declares four
// exports under internal/ and calls one from cmd/, one from bench/, one only
// from a test and its own body, and one (String) only through fmt.
func TestUncalledExportIsReported(t *testing.T) {
	uncalled, err := uncalledExports(filepath.Join("testdata", "uncalled"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/lib.Thing.Uncalled"}; !slices.Equal(uncalled, want) {
		t.Fatalf("uncalledExports reports %q, want %q", uncalled, want)
	}
}

// uncalledExports lists, in sorted order, the exported functions and methods
// declared in the non-test files under root's internal/ (transporttest
// aside) whose name appears in no non-test file under root — bench/
// included, testdata and hidden directories not — except inside their own
// declaration. A method is reported as dir.Receiver.Name, a function as
// dir.Name, where dir is the package's directory relative to root; methods
// named in callerExemptMethods are not reported.
func uncalledExports(root string) ([]string, error) {
	type decl struct {
		key, name string
		self      int // uses of its name inside its own declaration
	}
	var decls []decl
	uses := make(map[string]int) // identifiers other than a declared function's name
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := make(map[*ast.Ident]bool)
		for _, x := range f.Decls {
			if fn, ok := x.(*ast.FuncDecl); ok {
				names[fn.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				uses[id.Name]++
			}
			return true
		})
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel+"/", "internal/") || strings.HasSuffix(rel, "/transporttest") {
			return nil
		}
		for _, x := range f.Decls {
			fn, ok := x.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := rel + "." + fn.Name.Name
			if fn.Recv != nil {
				if slices.Contains(callerExemptMethods, fn.Name.Name) {
					continue
				}
				key = rel + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			self := 0
			ast.Inspect(fn, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != fn.Name && id.Name == fn.Name.Name {
					self++
				}
				return true
			})
			decls = append(decls, decl{key: key, name: fn.Name.Name, self: self})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var uncalled []string
	for _, d := range decls {
		if uses[d.name] == d.self {
			uncalled = append(uncalled, d.key)
		}
	}
	slices.Sort(uncalled)
	return uncalled, nil
}

// receiverName returns the type name of a method's receiver: T for T, *T,
// T[P] and *T[P].
func receiverName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
