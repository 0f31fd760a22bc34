package frieda

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// This file is where the design's rules are checked: over the syntax tree
// and the types of the module's and bench/'s non-test code, so a comment
// cannot trip a rule and a renamed file cannot slip past one. A new rule
// joins the rules table, with a planted violation under testdata/rules.

// callerExempt names the functions and methods under internal/ that may
// have no caller in the module's or bench/'s non-test code, each with the
// reason it stays. Keys are as uncalledFuncs reports them.
var callerExempt = map[string]string{
	"internal/cloud.Default4VMCluster": "the paper's 4-VM testbed, the fixture of the simulator packages' tests",
	"internal/cloud.Cluster.FailDisk":  "the scripted disk death that durability tests in other packages inject",

	"internal/netsim.Network.checkRatesAgainstReference": "the reference solver the allocator's tests compare every incremental rate against",

	// The runtime's two survivors of the sweep of uncalled API; ROADMAP
	// item 15 keeps their review open.
	"internal/core.Controller.UpdateStrategy": "the paper's run-time reconfiguration channel (Section II-D), which no command drives yet",
	"internal/core.Controller.Errors":         "the controller's record of worker failures, which no command prints yet",
}

// calledByStdlib lists the interfaces whose methods the standard library
// calls: a method that implements one of them has a caller even when no
// code of the module names it.
var calledByStdlib = []string{
	"error",
	"fmt.Stringer",
	"encoding.TextMarshaler",
	"encoding.TextUnmarshaler",
	"container/heap.Interface",
	"interface{ Unwrap() error }", // errors.Is and errors.As
}

// Every function and method declared in a non-test file under internal/ is
// called from somewhere outside its own declaration: by a non-test file of
// the module or of bench/, or, for a method, through an interface that the
// module calls or calledByStdlib names. transporttest is a test helper
// package and is not checked; what else stays without a caller is listed,
// with its reason, in callerExempt.
func TestEveryInternalFuncHasACaller(t *testing.T) {
	t.Parallel()
	tr := repoTree(t)
	uncalled, err := uncalledFuncs(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range uncalled {
		if _, ok := callerExempt[name]; !ok {
			t.Errorf("nothing outside tests calls %s: delete it, or list it in callerExempt with the reason it stays", name)
		}
	}
	for name, reason := range callerExempt {
		if !slices.Contains(uncalled, name) {
			t.Errorf("callerExempt lists %s, which is gone or has a caller now: drop it from the list", name)
		}
		if reason == "" {
			t.Errorf("callerExempt lists %s without a reason", name)
		}
	}
}

// The checker reports what nothing calls, by object: the fixture's lib
// declares functions called from cmd/, from bench/ and through fmt, one
// called only from a test and its own body, and two methods named Release
// of which only one is called, so a rule that matched names would pass the
// other.
func TestUncalledFuncIsReported(t *testing.T) {
	t.Parallel()
	uncalled, err := uncalledFuncs(fixtureTree(t, "Callers"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/lib.Other.Release", "internal/lib.Thing.Uncalled", "internal/lib.helper"}
	if !slices.Equal(uncalled, want) {
		t.Fatalf("uncalledFuncs reports %q, want %q", uncalled, want)
	}
}

// A rule is one of the design's constraints on the code. Its check returns
// each violation as "file:line: what", the file relative to the tree.
type rule struct {
	name  string // the subtest of TestDesignRules, and the fixture under testdata/rules
	check func(*tree) []string
}

var rules = []rule{
	{"NoGob", noGob},
	{"MasterHoldsNoLock", masterHoldsNoLock},
	{"WorkerHasOneSender", workerHasOneSender},
	{"GoroutinesHaveRoles", goroutinesHaveRoles},
	{"LifecycleFields", lifecycleFields},
	{"LifecycleStrategyReads", lifecycleStrategyReads},
	{"SimHoldsNoSync", simHoldsNoSync},
	{"OneFaultClock", oneFaultClock},
	{"NoNameKeyedFileSets", noNameKeyedFileSets},
	{"StrategyWords", strategyWords},
	{"OneGroupList", oneGroupList},
	{"SimrunReadsNoPluginConfig", simrunReadsNoPluginConfig},
	{"BenchStubs", benchStubUses},
	{"Layers", layers},
	{"Importers", importers},
}

// The module keeps every rule.
func TestDesignRules(t *testing.T) {
	t.Parallel()
	tr := repoTree(t)
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tr) {
				t.Error(v)
			}
		})
	}
}

// Each rule reports exactly the lines of its fixture that end in a
// "// want" comment, and no rule reports anything in the Comments fixture,
// whose comments name every forbidden word.
func TestDesignRuleFixtures(t *testing.T) {
	t.Parallel()
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			tr := fixtureTree(t, r.name)
			want, err := wantLines(tr.root)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("fixture %s plants no violation", r.name)
			}
			var got []string
			for _, v := range r.check(tr) {
				got = append(got, v[:strings.Index(v, ": ")])
			}
			slices.Sort(got)
			if got = slices.Compact(got); !slices.Equal(got, want) {
				t.Errorf("reports lines %q, want %q", got, want)
			}
		})
	}
	t.Run("Comments", func(t *testing.T) {
		tr := fixtureTree(t, "Comments")
		for _, r := range rules {
			for _, v := range r.check(tr) {
				t.Errorf("%s: %s", r.name, v)
			}
		}
	})
}

// benchStubs are the names that stay only because bench/ spells them; each
// does nothing, and nothing but its own file and tests may use it. pin is
// the bench/ line that names it.
var benchStubs = []struct{ key, pin string }{
	{"internal/core.MasterConfig.Batch", "bench/rt.go:283"},
	{"internal/protocol.TExecuteBatch", "bench/rtwrap.go:226"},
	{"internal/protocol.ExecuteSpec", "bench/rtwrap.go:227"},
	{"internal/protocol.Message.Executes", "bench/rtwrap.go:227"},
	{"internal/netsim.Network.SetColdAggregation", "bench/probes.go:514"},
	{"internal/netsim.Network.SetBatched", "bench/probes.go:515"},
	{"internal/simrun.Config.BatchSched", "bench/probes.go:415"},
	{"internal/simrun.DurabilityConfig.Verify", "bench/probes.go:421"},
	{"internal/catalog.Replicas.Add", "bench/probes.go:606"},
	{"internal/catalog.Replicas.Has", "bench/probes.go:619"},
	{"internal/catalog.Replicas.UnderReplicated", "bench/probes.go:624"},
	{"internal/catalog.Replicas.DropNode", "bench/probes.go:626"},
}

// Each bench stub exists, and its pin names it: when bench/ stops naming a
// stub, the stub goes.
func TestBenchStubsArePinned(t *testing.T) {
	t.Parallel()
	tr := repoTree(t)
	for _, s := range benchStubs {
		obj := tr.lookup(s.key)
		if obj == nil {
			t.Errorf("bench stub %s is not declared: drop it from benchStubs", s.key)
			continue
		}
		if !tr.namedAt(s.pin, obj) {
			t.Errorf("%s does not name bench stub %s", s.pin, s.key)
		}
	}
}

// designLines is DESIGN.md's length, lowered whenever the document
// shrinks: it may shrink, never grow, so what a change adds to it, it first
// takes out elsewhere.
const designLines = 2002

// DESIGN.md is no longer than designLines, and every internal/<pkg> its
// prose names exists (fenced blocks quote tool output, the standard
// library's internal packages among it, and are skipped).
func TestDesignDocRatchet(t *testing.T) {
	t.Parallel()
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) > designLines {
		t.Errorf("DESIGN.md has %d lines, past its ratchet of %d: say it in fewer", len(lines), designLines)
	}
	pkgRef := regexp.MustCompile(`\binternal/([a-z0-9_]+)`)
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range pkgRef.FindAllStringSubmatch(line, -1) {
			if st, err := os.Stat(filepath.Join("internal", m[1])); err != nil || !st.IsDir() {
				t.Errorf("DESIGN.md:%d names %s, which does not exist", i+1, m[0])
			}
		}
	}
}

// noGob: control messages have one hand-written layout
// (internal/protocol/codec.go), so nothing imports encoding/gob.
func noGob(tr *tree) (bad []string) {
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, s := range f.Imports {
				if s.Path.Value == `"encoding/gob"` {
					bad = append(bad, tr.at(s.Pos(), "imports encoding/gob"))
				}
			}
		}
	}
	return bad
}

// masterHoldsNoLock: the real master is one event loop, whose handoffs go
// through core's queue type, so master.go declares no field or variable of
// a lock, condition or once.
func masterHoldsNoLock(tr *tree) (bad []string) {
	p, f := tr.file("internal/core/master.go")
	if f == nil {
		return nil
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := p.info.Defs[id].(*types.Var); ok && isSyncLock(v.Type()) {
				bad = append(bad, tr.at(id.Pos(), fmt.Sprintf("%s is a %s", id.Name, v.Type())))
			}
		}
		return true
	})
	return bad
}

func isSyncLock(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return slices.Contains([]string{"Mutex", "RWMutex", "Cond", "Once"}, n.Obj().Name())
}

// workerHasOneSender: after the registration handshake a worker's
// connection has one sender, its writer (Worker.writer and the send it
// calls); no other function of worker.go sends, holds, flushes or streams a
// file on it. Worker.Run's REGISTER is the handshake.
func workerHasOneSender(tr *tree) (bad []string) {
	p, f := tr.file("internal/core/worker.go")
	if f == nil {
		return nil
	}
	send := tr.lookup("internal/transport.Conn.Send")
	senders := tr.objects("internal/transport.Conn.Send", "internal/transport.Conn.Hold", "internal/transport.Conn.Flush", "internal/core.sendFile")
	owners := tr.objects("internal/core.Worker.writer", "internal/core.Worker.send")
	run, register := tr.lookup("internal/core.Worker.Run"), tr.lookup("internal/protocol.TRegister")
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		self := p.info.Defs[fd.Name]
		if slices.Contains(owners, self) {
			continue
		}
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if self == run && p.callee(n) == send && p.mentions(n, register) {
					return false
				}
			case *ast.Ident:
				if obj := p.info.Uses[n]; obj != nil && slices.Contains(senders, obj) {
					bad = append(bad, tr.at(n.Pos(), fmt.Sprintf("%s uses %s outside the worker's writer", fd.Name.Name, n.Name)))
				}
			}
			return true
		})
	}
	return bad
}

// goroutinesHaveRoles: every goroutine core starts names its role in a
// pprof label before it makes any other call, so any profile of a run splits
// by role: each go statement in internal/core starts a function literal, or
// a function of core, whose first statement is pprof.SetGoroutineLabels.
func goroutinesHaveRoles(tr *tree) (bad []string) {
	p := tr.pkg("internal/core")
	if p == nil {
		return nil
	}
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[p.info.Defs[fd.Name]] = fd
			}
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				body = lit.Body
			} else if fd := decls[p.callee(g.Call)]; fd != nil {
				body = fd.Body
			}
			if !p.labelsFirst(body) {
				bad = append(bad, tr.at(g.Pos(), "starts a goroutine that does not set its role first"))
			}
			return true
		})
	}
	return bad
}

// labelsFirst reports whether body's first statement is a call of
// pprof.SetGoroutineLabels.
func (p *pkg) labelsFirst(body *ast.BlockStmt) bool {
	if body == nil || len(body.List) == 0 {
		return false
	}
	s, ok := body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := s.X.(*ast.CallExpr)
	return ok && isFunc(p.callee(call), "runtime/pprof", "SetGoroutineLabels")
}

// lifecycleFields: internal/sched owns the run's lifecycle (queue,
// attempts, staging, deal, window, drain, file plan, held files, groups in
// flight), so neither executor's run or worker struct keeps a field of the
// old copies' names.
func lifecycleFields(tr *tree) (bad []string) {
	forbidden := []string{"queue", "retries", "terminal", "admitted", "transfers", "unstaged", "prefetchMult", "phase", "inputs", "inputAt", "sent", "has", "outstanding", "inflight"}
	for _, key := range []string{"internal/core.Master", "internal/core.masterWorker", "internal/simrun.Runner", "internal/simrun.simWorker"} {
		obj := tr.lookup(key)
		if obj == nil {
			continue
		}
		st, ok := obj.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for f := range st.Fields() {
			if slices.Contains(forbidden, f.Name()) {
				bad = append(bad, tr.at(f.Pos(), fmt.Sprintf("%s keeps field %s, which internal/sched owns", obj.Name(), f.Name())))
			}
		}
	}
	return bad
}

// lifecycleStrategyReads: the window, slots and deal are stated once, by
// strategy.Config's Slots, Window and Fetches, so core and simrun read
// neither Prefetch nor Multicore, and pick no assigner by name.
func lifecycleStrategyReads(tr *tree) (bad []string) {
	forbidden := tr.objects("internal/strategy.Config.Prefetch", "internal/strategy.Config.Multicore", "internal/strategy.AssignerByName")
	for _, rel := range []string{"internal/core", "internal/simrun"} {
		bad = append(bad, tr.uses(tr.pkg(rel), func(obj types.Object) bool { return slices.Contains(forbidden, obj) })...)
	}
	return bad
}

// simHoldsNoSync: each simulated cell owns its state (sim.Arena, its
// network, its replica map and journal) and runs on one goroutine, so the
// simulator's packages use nothing of sync or sync/atomic, and in
// internal/catalog only MemSource, which the real master's writers read
// concurrently, names sync, in its type and its methods.
func simHoldsNoSync(tr *tree) (bad []string) {
	isSync := func(obj types.Object) bool {
		return obj.Pkg() != nil && (obj.Pkg().Path() == "sync" || obj.Pkg().Path() == "sync/atomic")
	}
	simDirs := []string{"internal/sim", "internal/netsim", "internal/cloud", "internal/storage", "internal/fault", "internal/simrun", "internal/sched"}
	for _, p := range tr.pkgs {
		if slices.ContainsFunc(simDirs, func(dir string) bool { return inDir(p.rel, dir) }) {
			bad = append(bad, tr.uses(p, isSync)...)
		}
	}
	p := tr.pkg("internal/catalog")
	if p == nil {
		return bad
	}
	memSource := p.types.Scope().Lookup("MemSource")
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && memSource != nil {
				if n, ok := deref(p.info.TypeOf(fd.Recv.List[0].Type)).(*types.Named); ok && n.Obj() == memSource {
					continue
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && p.info.Defs[ts.Name] == memSource {
					return false
				}
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.info.Uses[id]; obj != nil && isSync(obj) {
						bad = append(bad, tr.at(id.Pos(), "uses "+id.Name+" outside MemSource"))
					}
				}
				return true
			})
		}
	}
	return bad
}

// oneFaultClock: every seeded injector draws its exponential periods with
// sim.Exp, so no package outside internal/sim takes the log of a math/rand
// draw.
func oneFaultClock(tr *tree) (bad []string) {
	for _, p := range tr.pkgs {
		if inDir(p.rel, "internal/sim") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isFunc(p.callee(call), "math", "Log") {
					return true
				}
				for _, arg := range call.Args {
					ast.Inspect(arg, func(n ast.Node) bool {
						if c, ok := n.(*ast.CallExpr); ok && isRandDraw(p.callee(c)) {
							bad = append(bad, tr.at(call.Pos(), "math.Log of a math/rand draw: use sim.Exp"))
							return false
						}
						return true
					})
				}
				return true
			})
		}
	}
	return bad
}

func isFunc(obj types.Object, pkg, name string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == pkg && fn.Name() == name
}

func isRandDraw(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && (fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2")
}

// noNameKeyedFileSets: the simulator keys its file bookkeeping by interned
// id, so simrun has no map with a string key but Result.PerWorker; the real
// master keeps what it sent each worker in an id set, not the replica map,
// and its workers in a slice in name order, so core never names
// catalog.Replicas and master.go has no map with a string key.
func noNameKeyedFileSets(tr *tree) (bad []string) {
	perWorker := tr.lookup("internal/simrun.Result.PerWorker")
	if p := tr.pkg("internal/simrun"); p != nil {
		for _, f := range p.files {
			bad = append(bad, tr.stringKeyedMaps(p, f, perWorker)...)
		}
	}
	if p, f := tr.file("internal/core/master.go"); f != nil {
		bad = append(bad, tr.stringKeyedMaps(p, f, nil)...)
	}
	replicas := tr.lookup("internal/catalog.Replicas")
	bad = append(bad, tr.uses(tr.pkg("internal/core"), func(obj types.Object) bool { return obj == replicas })...)
	return bad
}

// stringKeyedMaps reports each map type with a string key written in f, and
// each variable of one, unnamed or named by p, that f declares, except the
// field allowed, its declaration and what is assigned to it. A map type
// another package names (obs.Args, a span's arguments) is that package's
// vocabulary, not a file set.
func (tr *tree) stringKeyedMaps(p *pkg, f *ast.File, allowed types.Object) (bad []string) {
	skip := make(map[ast.Node]bool)
	isAllowed := func(x ast.Expr) bool {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			x = sel.Sel
		}
		id, ok := x.(*ast.Ident)
		return ok && allowed != nil && p.info.ObjectOf(id) == allowed
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.Field:
			if slices.ContainsFunc(n.Names, func(id *ast.Ident) bool { return isAllowed(id) }) {
				return false
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if isAllowed(l) && len(n.Rhs) == len(n.Lhs) {
					skip[n.Rhs[i]] = true
				}
			}
		case *ast.KeyValueExpr:
			if isAllowed(n.Key) {
				skip[n.Value] = true
			}
		case *ast.MapType:
			if isStringKeyed(p.info.TypeOf(n)) {
				bad = append(bad, tr.at(n.Pos(), "a map with a string key"))
			}
		case *ast.Ident:
			if v, ok := p.info.Defs[n].(*types.Var); ok && isStringKeyed(v.Type()) && declaredIn(v.Type(), p.types) {
				bad = append(bad, tr.at(n.Pos(), "a map with a string key"))
			}
		}
		return true
	})
	return bad
}

func declaredIn(t types.Type, p *types.Package) bool {
	n, ok := t.(*types.Named)
	return !ok || n.Obj().Pkg() == p
}

func isStringKeyed(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	b, ok := m.Key().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// strategyWords: a strategy's words have one parser, the UnmarshalText of
// strategy's Kind, Locality and Placement, so no case clause outside
// internal/strategy matches one.
func strategyWords(tr *tree) (bad []string) {
	words := []string{"no-partition", "pre-partition", "real-time", "remote", "local", "data-to-compute", "compute-to-data"}
	for _, p := range tr.pkgs {
		if p.rel == "internal/strategy" {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				cc, ok := n.(*ast.CaseClause)
				if !ok {
					return true
				}
				for _, e := range cc.List {
					if v := p.info.Types[e].Value; v != nil && v.Kind() == constant.String && slices.Contains(words, constant.StringVal(v)) {
						bad = append(bad, tr.at(e.Pos(), fmt.Sprintf("case %s parses a strategy word outside internal/strategy", v)))
					}
				}
				return true
			})
		}
	}
	return bad
}

// oneGroupList: the real master and the simulator take a job's groups from
// one derivation, strategy.Config.Groups, so outside internal/partition and
// internal/strategy nothing resolves a grouping or runs a generator itself;
// bench/ times the generator alone, through strategy.Config.Generator.
func oneGroupList(tr *tree) (bad []string) {
	part := tr.pkg("internal/partition")
	if part == nil {
		return nil
	}
	resolvers := tr.objects("internal/partition.ByName", "internal/strategy.Config.Generator")
	generates := func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		return (ok && fn.Name() == "Generate" && fn.Pkg() == part.types) || slices.Contains(resolvers, obj)
	}
	for _, p := range tr.pkgs {
		if p != part && p.rel != "internal/strategy" && !inDir(p.rel, "bench") {
			bad = append(bad, tr.uses(p, generates)...)
		}
	}
	return bad
}

// simrunReadsNoPluginConfig: the core loop reaches its plug-ins through
// hooks, so simrun.go reads no plug-in's sub-config of simrun.Config.
func simrunReadsNoPluginConfig(tr *tree) []string {
	p, f := tr.file("internal/simrun/simrun.go")
	if f == nil {
		return nil
	}
	var fields []types.Object
	for _, name := range []string{"Gray", "Durability", "Detection", "Master", "CtrlPlane", "Tracer", "Metrics", "Attrib"} {
		fields = append(fields, tr.objects("internal/simrun.Config."+name)...)
	}
	return tr.usesIn(p, f, func(obj types.Object) bool { return slices.Contains(fields, obj) })
}

// benchStubUses: a bench stub does nothing, so nothing outside its own file
// and bench/ uses it.
func benchStubUses(tr *tree) (bad []string) {
	home := make(map[types.Object]string) // each stub's file
	for _, s := range benchStubs {
		if stub := tr.lookup(s.key); stub != nil {
			home[stub] = tr.fset.Position(stub.Pos()).Filename
		}
	}
	for _, p := range tr.pkgs {
		if inDir(p.rel, "bench") {
			continue
		}
		for id, obj := range p.info.Uses {
			if file, ok := home[obj]; ok && file != tr.fset.Position(id.Pos()).Filename {
				bad = append(bad, tr.at(id.Pos(), "uses bench stub "+id.Name))
			}
		}
	}
	slices.Sort(bad)
	return bad
}

// The layer table: the runtime stack and the simulator stack (every other
// internal package) import each other only through the shared core, which
// imports neither.
var (
	sharedLayer  = []string{"internal/catalog", "internal/partition", "internal/strategy", "internal/sched"}
	runtimeLayer = []string{"internal/protocol", "internal/transport", "internal/transfer", "internal/core", "internal/cli"}
)

func layerOf(rel string) string {
	switch {
	case !strings.HasPrefix(rel, "internal/"):
		return ""
	case slices.Contains(sharedLayer, rel):
		return "shared"
	case slices.ContainsFunc(runtimeLayer, func(l string) bool { return inDir(rel, l) }):
		return "runtime"
	}
	return "simulator"
}

// layers: each internal package imports only its own layer and the shared
// one; the shared layer imports only itself.
func layers(tr *tree) (bad []string) {
	for _, p := range tr.pkgs {
		from := layerOf(p.rel)
		if from == "" {
			continue
		}
		for _, f := range p.files {
			for _, s := range f.Imports {
				q := tr.byPath[strings.Trim(s.Path.Value, `"`)]
				if q == nil {
					continue
				}
				if to := layerOf(q.rel); to != "" && to != from && to != "shared" {
					bad = append(bad, tr.at(s.Pos(), fmt.Sprintf("the %s layer imports %s, of the %s layer", from, q.rel, to)))
				}
			}
		}
	}
	return bad
}

// importers: every internal package has a non-test importer; transporttest
// is a test helper.
func importers(tr *tree) (bad []string) {
	imported := make(map[string]bool)
	for _, p := range tr.pkgs {
		for _, q := range p.types.Imports() {
			imported[q.Path()] = true
		}
	}
	for _, p := range tr.pkgs {
		if underRules(p.rel) && !imported[p.types.Path()] {
			bad = append(bad, tr.at(p.files[0].Package, p.rel+" has no non-test importer: delete it"))
		}
	}
	return bad
}

// uncalledFuncs lists, in sorted order, the functions and methods declared
// in the non-test files under tr's internal/ (transporttest and init
// aside) that no non-test code of tr uses outside their own declaration,
// and no interface calls: one the module calls a method of, or one of
// calledByStdlib. A method is reported as dir.Receiver.Name, a function as
// dir.Name, where dir is the package's directory.
func uncalledFuncs(tr *tree) ([]string, error) {
	called := make(map[*types.Func]bool)
	var ifaces []*types.Interface
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					called[fn.Origin()] = true
					if recv := fn.Signature().Recv(); recv != nil {
						if it, ok := recv.Type().Underlying().(*types.Interface); ok && !slices.Contains(ifaces, it) {
							ifaces = append(ifaces, it)
						}
					}
					return true
				})
			}
		}
	}
	for _, name := range calledByStdlib {
		it, err := tr.stdInterface(name)
		if err != nil {
			return nil, err
		}
		if it != nil {
			ifaces = append(ifaces, it)
		}
	}
	var uncalled []string
	for _, p := range tr.pkgs {
		if !underRules(p.rel) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if called[fn] || implements(fn, ifaces) {
					continue
				}
				key := p.rel + "." + fn.Name()
				if recv := fn.Signature().Recv(); recv != nil {
					key = p.rel + "." + deref(recv.Type()).(*types.Named).Obj().Name() + "." + fn.Name()
				}
				uncalled = append(uncalled, key)
			}
		}
	}
	slices.Sort(uncalled)
	return uncalled, nil
}

// implements reports whether fn is a method by which its receiver's type
// implements one of ifaces.
func implements(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := deref(recv.Type()).(*types.Named)
	if named.TypeParams().Len() > 0 {
		return false // a generic type's methods are called directly
	}
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// A tree is the non-test Go of one source tree, type-checked: the module at
// root, and bench/ when it is a module of its own.
type tree struct {
	root    string // absolute
	fset    *token.FileSet
	pkgs    []*pkg // in dependency order
	byPath  map[string]*pkg
	std     types.Importer
	exports map[string]string // the standard library's export data, by import path
}

type pkg struct {
	rel   string // the directory relative to the tree's root, slash-separated; "." for the root
	types *types.Package
	files []*ast.File
	info  *types.Info
}

var (
	loadRepo     = sync.OnceValues(func() (*tree, error) { return load(".") })
	loadFixtures = sync.OnceValues(func() (*tree, error) { return load(filepath.Join("testdata", "rules")) })
)

func repoTree(t *testing.T) *tree {
	t.Helper()
	tr, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fixtureTree returns the fixture tree testdata/rules/name, whose packages
// are part of the fixtures' one module.
func fixtureTree(t *testing.T, name string) *tree {
	t.Helper()
	all, err := loadFixtures()
	if err != nil {
		t.Fatal(err)
	}
	sub := &tree{root: filepath.Join(all.root, name), fset: all.fset, byPath: make(map[string]*pkg), std: all.std, exports: all.exports}
	for _, p := range all.pkgs {
		if rel, ok := strings.CutPrefix(p.rel, name+"/"); ok || p.rel == name {
			if !ok {
				rel = "."
			}
			q := *p
			q.rel = rel
			sub.pkgs = append(sub.pkgs, &q)
			sub.byPath[q.types.Path()] = &q
		}
	}
	if len(sub.pkgs) == 0 {
		t.Fatalf("no fixture testdata/rules/%s", name)
	}
	return sub
}

// load type-checks the non-test packages of the module at dir, and of
// dir/bench when that has a go.mod: the standard library from the export
// data `go list -export` reports, the modules' own packages from source.
func load(dir string) (*tree, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	dirs := []string{root}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		dirs = append(dirs, filepath.Join(root, "bench"))
	}
	lists := make([][]listed, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, d := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i], errs[i] = goList(d)
		}()
	}
	wg.Wait()
	exports := make(map[string]string)
	tr := &tree{root: root, fset: token.NewFileSet(), byPath: make(map[string]*pkg), exports: exports}
	for i := range dirs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for _, l := range lists[i] {
			if l.standard {
				exports[l.path] = l.export
			}
		}
	}
	tr.std = importer.ForCompiler(tr.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	conf := types.Config{Importer: tr}
	for _, list := range lists {
		for _, l := range list {
			if l.standard || tr.byPath[l.path] != nil {
				continue
			}
			rel, err := filepath.Rel(root, l.dir)
			if err != nil {
				return nil, err
			}
			p := &pkg{rel: filepath.ToSlash(rel), info: &types.Info{
				Types: make(map[ast.Expr]types.TypeAndValue),
				Defs:  make(map[*ast.Ident]types.Object),
				Uses:  make(map[*ast.Ident]types.Object),
			}}
			for _, name := range l.files {
				f, err := parser.ParseFile(tr.fset, filepath.Join(l.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			if p.types, err = conf.Check(l.path, tr.fset, p.files, p.info); err != nil {
				return nil, err
			}
			tr.pkgs = append(tr.pkgs, p)
			tr.byPath[l.path] = p
		}
	}
	return tr, nil
}

// Import resolves the tree's own packages, already checked, and the
// standard library's from export data.
func (tr *tree) Import(path string) (*types.Package, error) {
	if p := tr.byPath[path]; p != nil {
		return p.types, nil
	}
	return tr.std.Import(path)
}

type listed struct {
	path, export, dir string
	standard          bool
	files             []string
}

// goList lists the packages of the module at dir, with their dependencies
// in dependency order.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Standard}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var list []listed
	for line := range strings.Lines(string(out)) {
		f := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("go list in %s: unexpected line %q", dir, line)
		}
		list = append(list, listed{path: f[0], standard: f[1] == "true", export: f[2], dir: f[3], files: strings.Fields(f[4])})
	}
	return list, nil
}

// stdInterface resolves one of calledByStdlib: a predeclared type, an
// interface literal, or path.Name in the standard library; nil for a
// package the tree does not depend on.
func (tr *tree) stdInterface(name string) (*types.Interface, error) {
	var typ types.Type
	if i := strings.LastIndex(name, "."); i < 0 || strings.HasPrefix(name, "interface{") {
		tv, err := types.Eval(tr.fset, nil, token.NoPos, name)
		if err != nil {
			return nil, err
		}
		typ = tv.Type
	} else {
		if _, ok := tr.exports[name[:i]]; !ok {
			return nil, nil // not linked in, so it calls nothing
		}
		p, err := tr.std.Import(name[:i])
		if err != nil {
			return nil, err
		}
		obj := p.Scope().Lookup(name[i+1:])
		if obj == nil {
			return nil, fmt.Errorf("no %s", name)
		}
		typ = obj.Type()
	}
	it, ok := typ.Underlying().(*types.Interface)
	if !ok {
		return nil, fmt.Errorf("%s is not an interface", name)
	}
	return it, nil
}

func (tr *tree) pkg(rel string) *pkg {
	for _, p := range tr.pkgs {
		if p.rel == rel {
			return p
		}
	}
	return nil
}

// file returns the package and syntax of the non-test file at rel, or nils.
func (tr *tree) file(rel string) (*pkg, *ast.File) {
	p := tr.pkg(pathDir(rel))
	if p == nil {
		return nil, nil
	}
	for _, f := range p.files {
		if filepath.Base(tr.fset.Position(f.Pos()).Filename) == filepath.Base(rel) {
			return p, f
		}
	}
	return nil, nil
}

// underRules reports whether the caller and importer rules check the
// package at rel: one under internal/ but transporttest, a test helper.
func underRules(rel string) bool {
	return strings.HasPrefix(rel, "internal/") && !strings.HasSuffix(rel, "/transporttest")
}

// inDir reports whether the directory rel is dir or lies under it.
func inDir(rel, dir string) bool { return rel == dir || strings.HasPrefix(rel, dir+"/") }

func pathDir(rel string) string { return rel[:max(strings.LastIndex(rel, "/"), 0)] }

// lookup resolves key, dir.Name or dir.Type.Member (a field or method), to
// its object, or nil when the tree declares no such thing.
func (tr *tree) lookup(key string) types.Object {
	slash := strings.LastIndex(key, "/")
	dot := slash + 1 + strings.Index(key[slash+1:], ".")
	p := tr.pkg(key[:dot])
	if p == nil {
		return nil
	}
	names := strings.Split(key[dot+1:], ".")
	obj := p.types.Scope().Lookup(names[0])
	if obj == nil || len(names) == 1 {
		return obj
	}
	member, _, _ := types.LookupFieldOrMethod(obj.Type(), true, p.types, names[1])
	return member
}

// objects resolves the keys the tree declares.
func (tr *tree) objects(keys ...string) []types.Object {
	var objs []types.Object
	for _, k := range keys {
		if obj := tr.lookup(k); obj != nil {
			objs = append(objs, obj)
		}
	}
	return objs
}

// uses reports, sorted, each use in p of an object that match selects.
func (tr *tree) uses(p *pkg, match func(types.Object) bool) []string {
	if p == nil {
		return nil
	}
	return tr.usesIn(p, nil, match)
}

// usesIn is uses within one file of p, or all of them when f is nil.
func (tr *tree) usesIn(p *pkg, f *ast.File, match func(types.Object) bool) (bad []string) {
	for id, obj := range p.info.Uses {
		if (f == nil || f.FileStart <= id.Pos() && id.Pos() < f.FileEnd) && match(obj) {
			bad = append(bad, tr.at(id.Pos(), "uses "+id.Name))
		}
	}
	slices.Sort(bad)
	return bad
}

// namedAt reports whether the line at pin ("file:line") uses obj, or, for a
// type, a value of a type spelled with it.
func (tr *tree) namedAt(pin string, obj types.Object) bool {
	file, line, _ := strings.Cut(pin, ":")
	p, f := tr.file(file)
	if f == nil {
		return false
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found || fmt.Sprint(tr.fset.Position(id.Pos()).Line) != line {
			return !found
		}
		if used := p.info.Uses[id]; used == obj || (used != nil && isType(obj) && strings.Contains(used.Type().String(), obj.Type().String())) {
			found = true
		}
		return !found
	})
	return found
}

func isType(obj types.Object) bool { _, ok := obj.(*types.TypeName); return ok }

// at formats a violation at pos: the file relative to the tree, its line,
// and what is wrong.
func (tr *tree) at(pos token.Pos, what string) string {
	p := tr.fset.Position(pos)
	rel, err := filepath.Rel(tr.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, what)
}

func (p *pkg) callee(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.info.Uses[fun]
	case *ast.SelectorExpr:
		return p.info.Uses[fun.Sel]
	}
	return nil
}

// mentions reports whether n uses obj.
func (p *pkg) mentions(n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// wantLines lists, sorted, the "file:line" of each line under root that
// ends in a "// want" comment.
func wantLines(root string) ([]string, error) {
	var want []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		s := bufio.NewScanner(f)
		for n := 1; s.Scan(); n++ {
			if strings.HasSuffix(s.Text(), "// want") {
				want = append(want, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), n))
			}
		}
		return s.Err()
	})
	slices.Sort(want)
	return want, err
}
