package repolint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Mapiter flags `range` over a map whose body feeds order-sensitive
// output — the exact class of bug that once made the fairness index
// depend on Go's randomized map iteration order until the sweep's
// byte-equality check caught it. Order-sensitive sinks are: appending
// to a slice declared outside the loop, accumulating into a float or
// string declared outside the loop (float addition is not associative;
// string concatenation is not commutative), calls that write or encode
// (io writers, fmt printing), and channel sends. A return whose results
// mention the range key or value is flagged too: it selects whichever
// entry iteration reaches first, so the result (an end-of-trace report
// naming "the" offending key, say) changes from run to run.
//
// An append sink is forgiven when the same slice is passed to a
// sort.* / slices.Sort* call later in the enclosing function — the
// collect-keys-then-sort idiom is the recommended fix, not a violation.
var Mapiter = &analysis.Analyzer{
	Name:     "mapiter",
	Doc:      "flag map iteration feeding ordered output without a subsequent sort (check: mapiter)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runMapiter,
}

// writeMethods are method names whose call inside a map-range body is
// treated as emitting ordered output.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "WriteAll": true, "Encode": true,
}

func runMapiter(pass *analysis.Pass) (any, error) {
	allows := CollectAllows(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.RangeStmt)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return false
		}
		rs := n.(*ast.RangeStmt)
		if isTestFile(pass.Fset, rs.Pos()) {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, ok := t.Underlying().(*types.Map); !ok {
			return true
		}
		body := enclosingFuncBody(stack)
		checkMapRangeBody(pass, allows, rs, body)
		return true
	})
	return nil, nil
}

// enclosingFuncBody returns the body of the innermost function
// declaration or literal on the stack, or nil at package scope.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

func checkMapRangeBody(pass *analysis.Pass, allows *Allows, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	info := pass.TypesInfo
	declaredOutside := func(e ast.Expr) (types.Object, bool) {
		var obj types.Object
		switch e := e.(type) {
		case *ast.Ident:
			obj = info.ObjectOf(e)
		case *ast.SelectorExpr:
			obj = info.ObjectOf(e.Sel) // field or method target: lives outside by construction
		default:
			return nil, false
		}
		if obj == nil {
			return nil, false
		}
		if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
			return obj, false // declared inside the loop: scoped per-iteration, order-safe
		}
		return obj, true
	}

	checkFirstMatchReturns(pass, allows, rs)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ASSIGN, token.DEFINE:
				for i, rhs := range n.Rhs {
					call, ok := rhs.(*ast.CallExpr)
					if !ok || !isBuiltinAppend(info, call) || i >= len(n.Lhs) {
						continue
					}
					obj, outside := declaredOutside(n.Lhs[i])
					if !outside {
						continue
					}
					if funcBody != nil && sortedAfter(pass, funcBody, rs.End(), obj) {
						continue
					}
					allows.Report(pass, n.Pos(), "mapiter",
						"append to %q inside a map range feeds ordered output in iteration order; sort it afterwards or iterate sorted keys", obj.Name())
				}
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) != 1 {
					break
				}
				t := info.TypeOf(n.Lhs[0])
				if t == nil {
					break
				}
				b, ok := t.Underlying().(*types.Basic)
				if !ok || b.Info()&(types.IsFloat|types.IsString) == 0 {
					break // integer accumulation commutes exactly; floats and strings do not
				}
				if obj, outside := declaredOutside(n.Lhs[0]); outside {
					kind := "float"
					if b.Info()&types.IsString != 0 {
						kind = "string"
					}
					allows.Report(pass, n.Pos(), "mapiter",
						"%s accumulation into %q inside a map range depends on iteration order; iterate sorted keys", kind, obj.Name())
				}
			}
		case *ast.SendStmt:
			allows.Report(pass, n.Pos(), "mapiter",
				"channel send inside a map range publishes values in iteration order; iterate sorted keys")
		case *ast.CallExpr:
			if fn := calleeFunc(info, n); fn != nil {
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
					(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
					allows.Report(pass, n.Pos(), "mapiter",
						"fmt.%s inside a map range emits output in iteration order; iterate sorted keys", fn.Name())
				} else if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && writeMethods[fn.Name()] {
					allows.Report(pass, n.Pos(), "mapiter",
						"%s call inside a map range writes output in iteration order; iterate sorted keys", fn.Name())
				}
			}
		}
		return true
	})
}

// checkFirstMatchReturns flags a return inside the map-range body whose
// results mention the range key or value. Returns inside function
// literals leave the literal, not the loop, and are skipped.
func checkFirstMatchReturns(pass *analysis.Pass, allows *Allows, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	var rangeVars []types.Object
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.ObjectOf(id); obj != nil {
				rangeVars = append(rangeVars, obj)
			}
		}
	}
	if len(rangeVars) == 0 {
		return
	}
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(rangeVars, info.ObjectOf(id)) {
				found = true
			}
			return !found
		})
		return found
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if mentions(r) {
					allows.Report(pass, n.Pos(), "mapiter",
						"return inside a map range selects the first match in iteration order; pick a deterministic entry (e.g. the smallest key)")
					break
				}
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// sortedAfter reports whether obj is passed to a sort.* or slices.Sort*
// call located after pos within body.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, pos token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := calleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		isSort := (fn.Pkg().Path() == "sort") ||
			(fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sort"))
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
