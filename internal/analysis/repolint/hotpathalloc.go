package repolint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Hotpathalloc rejects allocating constructs in functions annotated
// //repolint:hotpath — the paths the benchcmp 0-alloc gates protect
// (kernel dispatch, codec encode/decode, dense delivery, the svc call
// path). The bench gate tells you *that* a path started allocating;
// this analyzer tells you *where*, at vet time. Flagged constructs:
//
//   - function literals (closure headers allocate when they capture
//     and escape; a hot path should use predeclared funcs or methods)
//   - any call into package fmt (all of fmt allocates)
//   - map and chan construction (literals or make)
//   - append into a slice declared in the function without capacity
//     (grows by reallocation on the steady-state path)
//   - interface boxing: passing, assigning, returning, or converting a
//     concrete non-pointer value where an interface is expected
//
// A guarded cold path inside a hot function (error construction behind
// an if that never runs in the steady state) is annotated with
// //repolint:allow alloc -- <why> rather than restructured, keeping the
// annotation next to the allocation it justifies.
//
// Check strmap flags what costs a hot path without allocating: indexing,
// assigning or deleting in a map whose key type contains a string, which
// hashes the string and chases it on every call. A per-event path
// resolves names once, at bind or build time, and indexes dense slices;
// a probe that has to stay (a name read off the wire, resolved once per
// message) carries //repolint:allow strmap -- <why>.
var Hotpathalloc = &analysis.Analyzer{
	Name:     "hotpathalloc",
	Doc:      "reject allocating constructs and string-keyed map probes in //repolint:hotpath functions (checks: alloc, strmap)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHotpathalloc,
}

func runHotpathalloc(pass *analysis.Pass) (any, error) {
	allows := CollectAllows(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		decl := n.(*ast.FuncDecl)
		if decl.Body == nil || !isHotpath(decl) || isTestFile(pass.Fset, decl.Pos()) {
			return
		}
		checkHotBody(pass, allows, decl)
	})
	return nil, nil
}

// isHotpath reports whether the declaration's doc comment carries the
// //repolint:hotpath directive.
func isHotpath(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if name, _, ok := parseDirective(c.Text); ok && name == hotpathDirective {
			return true
		}
	}
	return false
}

func checkHotBody(pass *analysis.Pass, allows *Allows, decl *ast.FuncDecl) {
	info := pass.TypesInfo
	body := decl.Body
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			allows.Report(pass, n.Pos(), "alloc",
				"closure literal in hot path %s may allocate its header and captures", decl.Name.Name)
			return false // a closure's own body is not the annotated hot path
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					allows.Report(pass, n.Pos(), "alloc",
						"map literal allocates in hot path %s", decl.Name.Name)
				}
			}
		case *ast.IndexExpr:
			if stringKeyedMap(info.TypeOf(n.X)) {
				allows.Report(pass, n.Pos(), "strmap",
					"string-keyed map probe in hot path %s; resolve the name once and index a dense slice", decl.Name.Name)
			}
		case *ast.CallExpr:
			checkHotCall(pass, allows, decl, n)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				lt := info.TypeOf(n.Lhs[i])
				checkBoxing(pass, allows, decl, lt, rhs)
			}
		case *ast.ReturnStmt:
			sig, ok := info.Defs[decl.Name].(*types.Func)
			if !ok {
				break
			}
			results := sig.Type().(*types.Signature).Results()
			if len(n.Results) == results.Len() {
				for i, res := range n.Results {
					checkBoxing(pass, allows, decl, results.At(i).Type(), res)
				}
			}
		}
		return true
	})
}

func checkHotCall(pass *analysis.Pass, allows *Allows, decl *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Conversion to an interface type: any(x) / error(x) / Iface(x).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			checkBoxing(pass, allows, decl, tv.Type, call.Args[0])
		}
		return
	}

	// Builtins: make(map/chan), un-presized append.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if len(call.Args) > 0 {
					if tv, ok := info.Types[call.Args[0]]; ok {
						switch tv.Type.Underlying().(type) {
						case *types.Map:
							allows.Report(pass, call.Pos(), "alloc",
								"make(map) allocates in hot path %s", decl.Name.Name)
						case *types.Chan:
							allows.Report(pass, call.Pos(), "alloc",
								"make(chan) allocates in hot path %s", decl.Name.Name)
						}
					}
				}
			case "append":
				if len(call.Args) > 0 {
					checkFreshAppend(pass, allows, decl, call.Args[0])
				}
			case "delete":
				if len(call.Args) > 0 && stringKeyedMap(info.TypeOf(call.Args[0])) {
					allows.Report(pass, call.Pos(), "strmap",
						"string-keyed map delete in hot path %s; resolve the name once and index a dense slice", decl.Name.Name)
				}
			}
			return
		}
	}

	// fmt is wholesale off the hot path.
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		allows.Report(pass, call.Pos(), "alloc",
			"fmt.%s allocates in hot path %s", fn.Name(), decl.Name.Name)
		return
	}

	// Interface boxing at call arguments.
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBoxing(pass, allows, decl, pt, arg)
	}
}

// stringKeyedMap reports whether t is a map whose key type contains a
// string: a string itself, or an array or struct holding one.
func stringKeyedMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	return ok && containsString(m.Key())
}

func containsString(t types.Type) bool {
	switch t := t.Underlying().(type) {
	case *types.Basic:
		return t.Info()&types.IsString != 0
	case *types.Array:
		return containsString(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if containsString(t.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// checkBoxing reports when expr, of concrete non-pointer type, meets an
// interface-typed slot. Pointers, interfaces, nil, and functions fit in
// the interface word without copying the value to the heap.
func checkBoxing(pass *analysis.Pass, allows *Allows, decl *ast.FuncDecl, target types.Type, expr ast.Expr) {
	if target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	at := pass.TypesInfo.TypeOf(expr)
	if at == nil {
		return
	}
	if tv, ok := pass.TypesInfo.Types[expr]; ok && (tv.IsNil() || tv.Value != nil) {
		// nil fits the interface word; constants (panic("…"), errors’
		// sentinel strings) get a static read-only representation from
		// the compiler and do not heap-allocate when boxed.
		return
	}
	switch at.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
		return
	case *types.Tuple:
		// Multi-value RHS (comma-ok assertion, multi-return): the
		// values were already interface-shaped or are handled at the
		// producing call.
		return
	}
	allows.Report(pass, expr.Pos(), "alloc",
		"%s value boxed into %s interface allocates in hot path %s", at, target, decl.Name.Name)
}

// checkFreshAppend reports appends whose destination slice was declared
// inside the annotated function without pre-sized capacity.
func checkFreshAppend(pass *analysis.Pass, allows *Allows, decl *ast.FuncDecl, dst ast.Expr) {
	id, ok := dst.(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || obj.Pos() < decl.Body.Pos() || obj.Pos() > decl.Body.End() {
		return // parameter, receiver, or outer state: the caller sized it
	}
	if freshSlice(pass, decl.Body, obj) {
		allows.Report(pass, id.Pos(), "alloc",
			"append into %q, declared in hot path %s without capacity, grows by reallocation; pre-size with make(_, 0, n) or reuse a pooled slice", obj.Name(), decl.Name.Name)
	}
}

// freshSlice reports whether obj's declaration inside body carries no
// capacity: `var s []T`, `s := []T{}`, or `s := []T(nil)`. A
// `make([]T, n[, c])` or any other initializer is presumed sized.
func freshSlice(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	fresh := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.TypesInfo.ObjectOf(name) != obj {
					continue
				}
				if len(n.Values) == 0 {
					fresh = true // var s []T
				} else if i < len(n.Values) {
					fresh = freshInitializer(pass, n.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.TypesInfo.Defs[id] != obj || i >= len(n.Rhs) {
					continue
				}
				fresh = freshInitializer(pass, n.Rhs[i])
			}
		}
		return !fresh
	})
	return fresh
}

// freshInitializer reports whether v initializes a slice with no
// usable capacity: []T{}, []T(nil), or nil.
func freshInitializer(pass *analysis.Pass, v ast.Expr) bool {
	switch v := v.(type) {
	case *ast.CompositeLit:
		return len(v.Elts) == 0
	case *ast.Ident:
		return v.Name == "nil"
	case *ast.CallExpr: // []T(nil) conversion
		if tv, ok := pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
			if inner, ok := pass.TypesInfo.Types[v.Args[0]]; ok && inner.IsNil() {
				return true
			}
		}
	}
	return false
}
