package netkernel

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// sweepAllow lists what the sweep below would flag but stays, each with
// its reason. A key is "pkg.Func", "pkg.Type.Method", "pkg.Type.Field"
// or, for every field of a struct, "pkg.Type"; pkg is the import path
// below netkernel/internal/.
var sweepAllow = map[string]string{
	// Kept while an open ROADMAP item decides its fate.
	"sched.NewDRR":      "DRR waits on ROADMAP 20(b): wire it into ServiceLib or delete it",
	"sched.DRR.AddFlow": "DRR waits on ROADMAP 20(b)",
	"sched.DRR.Next":    "DRR waits on ROADMAP 20(b)",
	"sched.Flow.Served": "DRR waits on ROADMAP 20(b)",
	"framepool.Poison":  "use-after-release checks of four packages' tests (ROADMAP 4(b))",

	// The guest socket API: calls a tenant may make that no workload does.
	"guestlib.GuestLib.ReadAvailable": "guest socket API: FIONREAD",
	"guestlib.GuestLib.SetSockOpt":    "guest socket API: setsockopt",
	"guestlib.Poller.Remove":          "guest socket API: epoll_ctl(EPOLL_CTL_DEL)",

	// Test support that cannot move under _test.go: other packages'
	// tests read it, or it is a test harness's entry point.
	"chaostest.RunAndReport":         "the chaos harness's entry point; chaostest exists for its own tests",
	"experiments.RunScaleout":        "paper artefact run by TestScaleoutGate",
	"netsim.LossyReorderLAN":         "chaos profile of chaostest's scenarios",
	"netsim.WANPathGE":               "chaos profile of chaostest's scenarios",
	"netsim.FaultConfig.DupProb":     "set by the chaos profile LossyReorderLAN",
	"netsim.FaultConfig.CorruptProb": "set by the chaos profile LossyReorderLAN",
	"nkqueue.Queue.Refused":          "hypervisor's footprint test reads it",
	"proto/tcp.Conn.NagleEnabled":    "hypervisor's setsockopt test reads it",
	"shm.HugePages.RefCount":         "hypervisor's and tcp's chunk-lifetime tests read it",
	"shm.HugePages.Retains":          "hypervisor's allocation test reads it",
	"tcpcc.DCTCP.Alpha":              "tcp's ECN test reads it",

	// Not a setting.
	"proto/tcp.Options": "TCP header options: a wire format the parser fills",
}

// TestEverySettingHasACaller keeps the dead surface at zero. It fails,
// naming each offender, when
//
//   - (a) an exported function or method under internal/ is referenced
//     by no non-test file other than its declaration, or
//   - (b) an exported field of an exported *Config, *Options, *Opts or
//     *Spec struct under internal/ is written by no non-test file
//     outside its own package, so that every run uses its default.
//
// bench/, cmd/, examples/ and this package count as callers; tests do
// not. A function used only by its own package's tests belongs in a
// _test.go file of that package. Names are matched syntactically:
//   - a package-level function by its qualified name, or its bare name
//     inside its package;
//   - a method by a selector of its name in a package that imports the
//     receiver's package, directly or not, or by any interface that
//     declares it;
//   - a field by a keyed composite literal of its struct, or by an
//     assignment to a selector of its name.
func TestEverySettingHasACaller(t *testing.T) {
	start := time.Now()
	tree, err := parseSweepTree(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range tree.sweep() {
		if _, ok := sweepAllow[o.key]; !ok {
			t.Errorf("%s: %s %s", o.pos, o.key, o.why)
		}
	}
	var stale []string
	for key := range sweepAllow {
		if !tree.declared[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("sweepAllow lists %s, which is not declared", key)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("sweep took %v, want under 1 s", d)
	}
}

const sweepModule = "netkernel"

type sweepFile struct {
	pkg     string            // import path
	ast     *ast.File         // parsed source
	imports map[string]string // local name → import path
}

type sweepTree struct {
	fset  *token.FileSet
	files []*sweepFile // non-test files only
	// aliases maps the "pkg.Name" of a type alias to the "pkg.Name" it
	// stands for.
	aliases map[string]string
	// declared holds every key the sweep checked, flagged or not.
	declared map[string]bool
}

type sweepOffender struct {
	pos, key, why string
}

func parseSweepTree(root string) (*sweepTree, error) {
	tr := &sweepTree{fset: token.NewFileSet(), aliases: map[string]string{}, declared: map[string]bool{}}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(tr.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		sf := &sweepFile{pkg: path.Join(sweepModule, filepath.ToSlash(filepath.Dir(p))), ast: f, imports: map[string]string{}}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			sf.imports[local] = ip
		}
		tr.files = append(tr.files, sf)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, f := range tr.files {
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts := spec.(*ast.TypeSpec); ts.Assign.IsValid() {
					if target, ok := f.typeKey(ts.Type); ok {
						tr.aliases[f.pkg+"."+ts.Name.Name] = target
					}
				}
			}
		}
	}
	return tr, nil
}

// typeKey resolves a type expression to "pkg.Name" as written: Name in
// the file's own package, or X.Name through the file's imports.
func (f *sweepFile) typeKey(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.StarExpr:
		return f.typeKey(e.X)
	case *ast.IndexExpr:
		return f.typeKey(e.X)
	case *ast.Ident:
		return f.pkg + "." + e.Name, true
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if ip, ok := f.imports[x.Name]; ok {
				return ip + "." + e.Sel.Name, true
			}
		}
	}
	return "", false
}

// resolve follows type aliases ("netkernel.NSMSpec" →
// "netkernel/internal/hypervisor.NSMSpec").
func (tr *sweepTree) resolve(key string) string {
	for next, ok := tr.aliases[key]; ok; next, ok = tr.aliases[key] {
		key = next
	}
	return key
}

// shortKey drops the module's internal/ prefix.
func shortKey(key string) string { return strings.TrimPrefix(key, sweepModule+"/internal/") }

func sweptConfigName(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Opts", "Spec"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// imported returns, for each package, the module packages it imports
// directly or through others.
func (tr *sweepTree) imported() map[string]map[string]bool {
	direct := map[string]map[string]bool{}
	for _, f := range tr.files {
		if direct[f.pkg] == nil {
			direct[f.pkg] = map[string]bool{}
		}
		for _, ip := range f.imports {
			if ip == sweepModule || strings.HasPrefix(ip, sweepModule+"/") {
				direct[f.pkg][ip] = true
			}
		}
	}
	all := map[string]map[string]bool{}
	var visit func(pkg string) map[string]bool
	visit = func(pkg string) map[string]bool {
		if seen, ok := all[pkg]; ok {
			return seen
		}
		seen := map[string]bool{}
		all[pkg] = seen // the import graph is acyclic
		for ip := range direct[pkg] {
			seen[ip] = true
			for dep := range visit(ip) {
				seen[dep] = true
			}
		}
		return seen
	}
	for pkg := range direct {
		visit(pkg)
	}
	return all
}

func (tr *sweepTree) sweep() []sweepOffender {
	type decl struct {
		pkg, recv, name string // recv is "" for a function, the struct for a field
		pos             token.Pos
	}
	var funcs, fields []decl
	configType := map[string]bool{} // "pkg.Type" of each swept struct
	declName := map[*ast.Ident]bool{}
	ifaceMethods := map[string]bool{
		// Methods the standard library calls through its interfaces.
		"String": true, "Error": true, "Unwrap": true, "Format": true,
		"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
		"Read": true, "Write": true, "Close": true,
	}
	internal := sweepModule + "/internal/"
	for _, f := range tr.files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, name := range m.Names {
						ifaceMethods[name.Name] = true
					}
				}
			}
			return true
		})
		if !strings.HasPrefix(f.pkg, internal) {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declName[d.Name] = true
				if !d.Name.IsExported() {
					continue
				}
				fd := decl{pkg: f.pkg, name: d.Name.Name, pos: d.Pos()}
				if d.Recv != nil {
					key, _ := f.typeKey(d.Recv.List[0].Type)
					fd.recv = strings.TrimPrefix(key, f.pkg+".")
				}
				funcs = append(funcs, fd)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !sweptConfigName(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					configType[f.pkg+"."+ts.Name.Name] = true
					for _, fl := range st.Fields.List {
						for _, name := range fl.Names {
							if name.IsExported() {
								fields = append(fields, decl{pkg: f.pkg, recv: ts.Name.Name, name: name.Name, pos: name.Pos()})
							}
						}
					}
				}
			}
		}
	}

	funcRef := map[string]bool{}             // "pkg.Func"
	selected := map[string]map[string]bool{} // package → names it selects
	fieldWrite := map[string]bool{}          // "pkg.Type.Field", from outside pkg
	assigned := map[string]map[string]bool{} // field name → packages assigning it
	for _, f := range tr.files {
		if selected[f.pkg] == nil {
			selected[f.pkg] = map[string]bool{}
		}
		writeLit := func(lit *ast.CompositeLit, typ string) {
			typ = tr.resolve(typ)
			if !configType[typ] || strings.HasPrefix(typ, f.pkg+".") {
				return
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					fieldWrite[typ+".*"] = true // positional: every field
					return
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					fieldWrite[typ+"."+id.Name] = true
				}
			}
		}
		// An assignment to a.B.C writes C, and B through it. The type of
		// a is not known here, so the write counts for a field of that
		// name in any package.
		writeSel := func(e ast.Expr) {
			for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
				if assigned[sel.Sel.Name] == nil {
					assigned[sel.Sel.Name] = map[string]bool{}
				}
				assigned[sel.Sel.Name][f.pkg] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if !declName[n] {
					funcRef[f.pkg+"."+n.Name] = true
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := f.imports[x.Name]; ok {
						funcRef[ip+"."+n.Sel.Name] = true
					}
				}
				selected[f.pkg][n.Sel.Name] = true
			case *ast.CompositeLit:
				if typ, ok := f.typeKey(n.Type); ok {
					writeLit(n, typ)
					return true
				}
				// The elements of a slice, array or map literal may omit
				// their type.
				var elt ast.Expr
				switch t := n.Type.(type) {
				case *ast.ArrayType:
					elt = t.Elt
				case *ast.MapType:
					elt = t.Value
				}
				if typ, ok := f.typeKey(elt); ok {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							el = kv.Value
						}
						if u, ok := el.(*ast.UnaryExpr); ok {
							el = u.X
						}
						if lit, ok := el.(*ast.CompositeLit); ok && lit.Type == nil {
							writeLit(lit, typ)
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					writeSel(lhs)
				}
			case *ast.IncDecStmt:
				writeSel(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					writeSel(n.X) // &cfg.Field handed to a setter
				}
			}
			return true
		})
	}

	imported := tr.imported()
	methodUsed := func(pkg, name string) bool {
		if ifaceMethods[name] {
			return true
		}
		for user, names := range selected {
			if names[name] && (user == pkg || imported[user][pkg]) {
				return true
			}
		}
		return false
	}
	var out []sweepOffender
	flag := func(pos token.Pos, key, why string) {
		out = append(out, sweepOffender{tr.fset.Position(pos).String(), key, why})
	}
	for _, fd := range funcs {
		if fd.recv == "" {
			key := fd.pkg + "." + fd.name
			tr.declared[shortKey(key)] = true
			if !funcRef[key] {
				flag(fd.pos, shortKey(key), "has no caller outside tests")
			}
			continue
		}
		key := shortKey(fd.pkg + "." + fd.recv + "." + fd.name)
		tr.declared[key] = true
		if !methodUsed(fd.pkg, fd.name) {
			flag(fd.pos, key, "has no caller outside tests")
		}
	}
	for _, fd := range fields {
		typ := fd.pkg + "." + fd.recv
		key := typ + "." + fd.name
		tr.declared[shortKey(typ)] = true
		tr.declared[shortKey(key)] = true
		if fieldWrite[key] || fieldWrite[typ+".*"] {
			continue
		}
		outside := false
		for pkg := range assigned[fd.name] {
			outside = outside || pkg != fd.pkg
		}
		if !outside {
			if _, ok := sweepAllow[shortKey(typ)]; !ok {
				flag(fd.pos, shortKey(key), "is set by nothing outside its package and tests")
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}
