package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// fifoImport is the package whose API the fifodiscard analyzer guards.
const fifoImport = "condor/internal/fifo"

// FIFODiscard reports calls to FIFO Pop whose result is discarded. Pop's
// second result is the end-of-stream flag: dropping it silently loses the
// close signal, and dropping the word desynchronises the stream — both are
// fabric bugs, not conveniences. Files are in scope when they import
// condor/internal/fifo (or are the fifo package itself).
var FIFODiscard = &Analyzer{
	Name: "fifodiscard",
	Doc:  "report FIFO Pop results that are discarded (losing the end-of-stream flag)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			if !Imports(f, fifoImport) && f.Name.Name != "fifo" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if isPopCall(n.X) {
						p.Reportf(n.Pos(), "result of Pop is discarded: the word and the end-of-stream flag are both lost")
					}
				case *ast.AssignStmt:
					if len(n.Rhs) == 1 && isPopCall(n.Rhs[0]) && allBlank(n.Lhs) {
						p.Reportf(n.Pos(), "result of Pop is assigned to blanks only: check the end-of-stream flag or use Drain")
					}
				}
				return true
			})
		}
	},
}

// isPopCall matches a zero-argument method call named Pop.
func isPopCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Pop"
}

func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// ShapeCompare reports hand-rolled comparisons of tensor shapes —
// reflect.DeepEqual over Shape() results, comparing Sprint-formatted shapes,
// or direct ==/!= on Shape() calls — all of which either allocate, lie about
// nil-vs-empty, or fail to compile later. tensor.ShapeEq (for []int dims)
// and tensor.SameShape (for tensors) are the supported comparisons.
var ShapeCompare = &Analyzer{
	Name: "shapecompare",
	Doc:  "report hand-rolled tensor shape comparisons; use tensor.ShapeEq / tensor.SameShape",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			reflectName := ImporterName(f, "reflect")
			fmtName := ImporterName(f, "fmt")
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if reflectName != "" && isPkgCall(n, reflectName, "DeepEqual") && anyShapeCall(n.Args) {
						p.Reportf(n.Pos(), "reflect.DeepEqual over Shape() results: use tensor.ShapeEq")
					}
				case *ast.BinaryExpr:
					if n.Op != token.EQL && n.Op != token.NEQ {
						return true
					}
					if isShapeCall(n.X) || isShapeCall(n.Y) {
						p.Reportf(n.Pos(), "Shape() results compared with %s: use tensor.ShapeEq", n.Op)
					} else if fmtName != "" && (isSprintOfShape(n.X, fmtName) || isSprintOfShape(n.Y, fmtName)) {
						p.Reportf(n.Pos(), "shapes compared through fmt.Sprint: use tensor.ShapeEq")
					}
				}
				return true
			})
		}
	},
}

// isShapeCall matches a zero-argument method call named Shape.
func isShapeCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Shape"
}

func anyShapeCall(args []ast.Expr) bool {
	for _, a := range args {
		if isShapeCall(a) {
			return true
		}
	}
	return false
}

// isPkgCall matches pkg.Fn(...) for a package bound to local name pkgName.
func isPkgCall(call *ast.CallExpr, pkgName, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkgName
}

// isSprintOfShape matches fmt.Sprint/Sprintf calls whose arguments include a
// Shape() call.
func isSprintOfShape(e ast.Expr, fmtName string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if !isPkgCall(call, fmtName, "Sprint") && !isPkgCall(call, fmtName, "Sprintf") {
		return false
	}
	return anyShapeCall(call.Args)
}

// lockBearers lists the stdlib types whose values must never be copied once
// used; fifo.FIFO joins them because it holds a sync.Mutex and two
// sync.Conds bound to it.
var lockBearers = map[string]map[string]bool{
	"sync":   {"Mutex": true, "RWMutex": true, "Once": true, "WaitGroup": true, "Cond": true, "Map": true},
	"atomic": {"Bool": true, "Int32": true, "Int64": true, "Uint32": true, "Uint64": true, "Uintptr": true, "Pointer": true, "Value": true},
	"fifo":   {"FIFO": true},
}

// CopyLocks reports function signatures that copy lock-bearing values: value
// receivers and by-value parameters of package-local struct types that
// (transitively) contain a sync/atomic primitive or a fifo.FIFO, and
// parameters typed as those primitives directly. Copying such a value forks
// its internal state — the copy's mutex guards nothing. This is the
// AST-level complement of go vet's type-aware copylocks pass.
var CopyLocks = &Analyzer{
	Name: "copylocks",
	Doc:  "report lock-bearing values passed or received by value",
	Run: func(p *Pass) {
		locky := lockTypeNames(p.Files)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn.Recv != nil {
					for _, field := range fn.Recv.List {
						if name, bad := lockByValue(field.Type, locky); bad {
							p.Reportf(field.Pos(), "method %s has a value receiver of lock-bearing type %s; use *%s", fn.Name.Name, name, name)
						}
					}
				}
				if fn.Type.Params != nil {
					for _, field := range fn.Type.Params.List {
						if name, bad := lockByValue(field.Type, locky); bad {
							p.Reportf(field.Pos(), "parameter of function %s copies lock-bearing type %s; pass *%s", fn.Name.Name, name, name)
						}
					}
				}
			}
		}
	},
}

// lockTypeNames computes the package-local struct type names that contain a
// lock-bearing field, transitively (a struct embedding such a struct is
// itself lock-bearing).
func lockTypeNames(files []*ast.File) map[string]bool {
	// fields[T] lists the package-local type names T's fields reference.
	fields := map[string][]string{}
	locky := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					t := field.Type
					if sel, ok := t.(*ast.SelectorExpr); ok {
						if id, ok := sel.X.(*ast.Ident); ok && lockBearers[id.Name][sel.Sel.Name] {
							locky[ts.Name.Name] = true
						}
					}
					if id, ok := t.(*ast.Ident); ok {
						fields[ts.Name.Name] = append(fields[ts.Name.Name], id.Name)
					}
				}
			}
		}
	}
	// Fixpoint: propagate lockiness through package-local field types.
	for changed := true; changed; {
		changed = false
		for name, refs := range fields {
			if locky[name] {
				continue
			}
			for _, ref := range refs {
				if locky[ref] {
					locky[name] = true
					changed = true
					break
				}
			}
		}
	}
	return locky
}

// lockByValue reports whether t is a by-value use of a lock-bearing type,
// returning the display name.
func lockByValue(t ast.Expr, locky map[string]bool) (string, bool) {
	switch t := t.(type) {
	case *ast.Ident:
		if locky[t.Name] {
			return t.Name, true
		}
	case *ast.SelectorExpr:
		if id, ok := t.X.(*ast.Ident); ok && lockBearers[id.Name][t.Sel.Name] {
			return id.Name + "." + t.Sel.Name, true
		}
	}
	return "", false
}

// HTTPTimeout reports http.Client values constructed without an explicit
// Timeout. Every cloud call in the AWS backend rides such a client; one with
// no deadline turns a hung endpoint into a hung deployment. The analyzer
// flags composite literals missing the Timeout field and new(http.Client).
var HTTPTimeout = &Analyzer{
	Name: "httptimeout",
	Doc:  "report http.Client values constructed without a Timeout",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			httpName := ImporterName(f, "net/http")
			if httpName == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					sel, ok := n.Type.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Client" {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || id.Name != httpName {
						return true
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Timeout" {
								return true
							}
						}
					}
					p.Reportf(n.Pos(), "http.Client constructed without a Timeout: cloud calls must bound their latency")
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
						if sel, ok := n.Args[0].(*ast.SelectorExpr); ok && sel.Sel.Name == "Client" {
							if x, ok := sel.X.(*ast.Ident); ok && x.Name == httpName {
								p.Reportf(n.Pos(), "new(http.Client) has no Timeout: cloud calls must bound their latency")
							}
						}
					}
				}
				return true
			})
		}
	},
}

// DocSummary returns "name: doc" lines for -list output.
func DocSummary(analyzers []*Analyzer) string {
	var b strings.Builder
	for _, a := range analyzers {
		b.WriteString(a.Name + ": " + a.Doc + "\n")
	}
	return b.String()
}
